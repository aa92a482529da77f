package workload

import (
	"fmt"
	"math/rand"

	"github.com/tasterdb/taster/internal/storage"
)

// instacart dimension vocabularies (subset of the real dataset's values).
var (
	departmentNames = []string{"produce", "dairy eggs", "snacks", "beverages", "frozen", "pantry", "bakery", "canned goods", "deli", "dry goods pasta", "household", "meat seafood", "breakfast", "personal care", "babies", "international", "alcohol", "pets", "missing", "other", "bulk"}
	aisleNames      = []string{"fresh fruits", "fresh vegetables", "packaged cheese", "yogurt", "milk", "water seltzer", "chips pretzels", "ice cream", "soft drinks", "bread", "refrigerated", "frozen meals", "eggs", "cereal", "candy chocolate", "lunch meat", "soup", "baby food", "dog food", "wine"}
)

// Instacart generates the online-grocery micro-benchmark (paper §VI, [1]):
// orders, orderproducts (the fact table), products, aisles and departments,
// plus the eight Table-I templates — four sketch-amenable (grouping on the
// probe side / join key) and four sample-amenable (grouping on fact
// columns). scale=1 ≈ 200k orderproduct rows; the paper scales the real
// dataset 100×, we scale down instead and let the cost model normalize.
func Instacart(scale float64, seed int64) *Workload {
	if scale <= 0 {
		scale = 0.1
	}
	r := rand.New(rand.NewSource(seed))
	cat := storage.NewCatalog()
	var rows int64

	nDepts := len(departmentNames)
	nAisles := len(aisleNames)
	nProducts := maxRows(scale, 20000)
	nOrders := maxRows(scale, 50000)
	// The real dataset averages ~10 items per order; that fanout is what
	// makes a per-order sketch far smaller than the fact table.
	nOrderProducts := nOrders * 10

	db := storage.NewBuilder("departments", storage.Schema{
		{Name: "departments.department_id", Typ: storage.Int64},
		{Name: "departments.d_department", Typ: storage.String},
	})
	db.Grow(nDepts)
	for i, n := range departmentNames {
		db.Int(0, int64(i))
		db.Str(1, n)
	}
	cat.Register(db.Build(1))
	rows += int64(nDepts)

	ab := storage.NewBuilder("aisles", storage.Schema{
		{Name: "aisles.aisle_id", Typ: storage.Int64},
		{Name: "aisles.a_aisle", Typ: storage.String},
	})
	ab.Grow(nAisles)
	for i, n := range aisleNames {
		ab.Int(0, int64(i))
		ab.Str(1, n)
	}
	cat.Register(ab.Build(1))
	rows += int64(nAisles)

	pb := storage.NewBuilder("products", storage.Schema{
		{Name: "products.product_id", Typ: storage.Int64},
		{Name: "products.p_product_name", Typ: storage.String},
		{Name: "products.p_aisle_id", Typ: storage.Int64},
		{Name: "products.p_department_id", Typ: storage.Int64},
	})
	pb.Grow(nProducts)
	for i := 0; i < nProducts; i++ {
		pb.Int(0, int64(i))
		pb.Str(1, fmt.Sprintf("product_%d", i%2000))
		pb.Int(2, int64(r.Intn(nAisles)))
		pb.Int(3, int64(r.Intn(nDepts)))
	}
	cat.Register(pb.Build(2))
	rows += int64(nProducts)

	ob := storage.NewBuilder("orders", storage.Schema{
		{Name: "orders.order_id", Typ: storage.Int64},
		{Name: "orders.user_id", Typ: storage.Int64},
		{Name: "orders.o_order_dow", Typ: storage.Int64},
		{Name: "orders.o_order_hod", Typ: storage.Int64},
	})
	ob.Grow(nOrders)
	for i := 0; i < nOrders; i++ {
		ob.Int(0, int64(i))
		ob.Int(1, int64(r.Intn(nOrders/10+1)))
		ob.Int(2, int64(r.Intn(7)))
		// Hour-of-day skews toward daytime like the real dataset.
		ob.Int(3, int64(8+r.Intn(14)))
	}
	cat.Register(ob.Build(4))
	rows += int64(nOrders)

	opb := storage.NewBuilder("orderproducts", storage.Schema{
		{Name: "orderproducts.op_order_id", Typ: storage.Int64},
		{Name: "orderproducts.op_product_id", Typ: storage.Int64},
		{Name: "orderproducts.op_reordered", Typ: storage.Int64},
	})
	opb.Grow(nOrderProducts)
	for i := 0; i < nOrderProducts; i++ {
		opb.Int(0, int64(i/10))
		// Product popularity is heavy-tailed: square the uniform draw.
		f := r.Float64()
		opb.Int(1, int64(f*f*float64(nProducts)))
		opb.Int(2, int64(r.Intn(2)))
	}
	cat.Register(opb.Build(8))
	rows += int64(nOrderProducts)

	// Table I, verbatim shapes. Variables *day*, *hour*, *productname*,
	// *department*, *aislename* are randomly set per instantiation.
	templates := []Template{
		{Name: "sketch-1", Kind: "sketch", Instantiate: func(r *rand.Rand) string {
			return fmt.Sprintf(`SELECT order_id, COUNT(*) FROM orderproducts JOIN orders ON op_order_id = order_id WHERE o_order_dow = %d AND o_order_hod > %d GROUP BY order_id`, r.Intn(7), 8+r.Intn(12))
		}},
		{Name: "sketch-2", Kind: "sketch", Instantiate: func(r *rand.Rand) string {
			return fmt.Sprintf(`SELECT product_id, COUNT(*) FROM orderproducts JOIN products ON op_product_id = product_id WHERE p_product_name = 'product_%d' GROUP BY product_id`, r.Intn(2000))
		}},
		{Name: "sketch-3", Kind: "sketch", Instantiate: func(r *rand.Rand) string {
			return fmt.Sprintf(`SELECT product_id, COUNT(*) FROM orderproducts JOIN products ON op_product_id = product_id JOIN departments ON p_department_id = department_id WHERE d_department = '%s' GROUP BY product_id`, pick(r, departmentNames))
		}},
		{Name: "sketch-4", Kind: "sketch", Instantiate: func(r *rand.Rand) string {
			return fmt.Sprintf(`SELECT product_id, COUNT(*) FROM orderproducts JOIN products ON op_product_id = product_id JOIN aisles ON p_aisle_id = aisle_id WHERE a_aisle = '%s' GROUP BY product_id`, pick(r, aisleNames))
		}},
		{Name: "sample-1", Kind: "sample", Instantiate: func(r *rand.Rand) string {
			return fmt.Sprintf(`SELECT op_product_id, COUNT(*) FROM orderproducts JOIN orders ON op_order_id = order_id WHERE o_order_dow = %d AND o_order_hod > %d GROUP BY op_product_id`, r.Intn(7), 8+r.Intn(12))
		}},
		{Name: "sample-2", Kind: "sample", Instantiate: func(r *rand.Rand) string {
			return fmt.Sprintf(`SELECT op_order_id, COUNT(*) FROM orderproducts JOIN products ON op_product_id = product_id WHERE p_product_name = 'product_%d' GROUP BY op_order_id`, r.Intn(2000))
		}},
		{Name: "sample-3", Kind: "sample", Instantiate: func(r *rand.Rand) string {
			return fmt.Sprintf(`SELECT op_order_id, COUNT(*) FROM orderproducts JOIN products ON op_product_id = product_id JOIN departments ON p_department_id = department_id WHERE d_department = '%s' GROUP BY op_order_id`, pick(r, departmentNames))
		}},
		{Name: "sample-4", Kind: "sample", Instantiate: func(r *rand.Rand) string {
			return fmt.Sprintf(`SELECT op_order_id, COUNT(*) FROM orderproducts JOIN products ON op_product_id = product_id JOIN aisles ON p_aisle_id = aisle_id WHERE a_aisle = '%s' GROUP BY op_order_id`, pick(r, aisleNames))
		}},
	}

	return &Workload{Name: "instacart", Catalog: cat, Templates: templates, TotalRows: rows}
}
