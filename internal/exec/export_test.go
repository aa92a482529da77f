package exec

// The fixture tables, for the tests that live in package exec_test beside the
// oracle (which may name nothing this package declares outside its tests).
var (
	OrdersTable    = ordersTable
	CustomersTable = customersTable
	RegionsTable   = regionsTable
	BigOrders      = bigOrders
	AmountAbove    = amountAbove
)
