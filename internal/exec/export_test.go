package exec

import "github.com/tasterdb/taster/internal/storage"

// The fixture tables, for the tests that live in package exec_test beside the
// oracle (which may name nothing this package declares outside its tests).
var (
	OrdersTable    = ordersTable
	CustomersTable = customersTable
	RegionsTable   = regionsTable
	BigOrders      = bigOrders
	AmountAbove    = amountAbove
)

// GroupIDCol names the group id column a join emits when an aggregate groups
// through it.
const GroupIDCol = groupIDCol

// JoinSchemas returns the output schema of every join on a compiled plan's
// spine, bottom-up: what a joined batch physically holds at each level.
func JoinSchemas(op Operator) []storage.Schema {
	if s, ok := op.(*SortOp); ok {
		op = s.Child
	}
	var out []storage.Schema
	for _, js := range op.(*PipelineOp).joins {
		out = append(out, js.spec.schema)
	}
	return out
}
