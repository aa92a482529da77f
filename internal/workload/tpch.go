package workload

import (
	"fmt"
	"math/rand"

	"github.com/tasterdb/taster/internal/storage"
)

// TPCH generates a TPC-H-shaped dataset at the given scale factor (sf=1 ≈
// the standard 6M-row lineitem; the experiments default to laptop scale)
// and the 18 approximable query templates the paper uses (all 22 minus Q2,
// Q4, Q21, Q22 — §VI footnote 3).
//
// Substitutions vs. real TPC-H (documented per DESIGN.md §2): dates are
// integer day offsets from 1992-01-01, expression aggregates like
// SUM(l_extendedprice·(1−l_discount)) become single-column aggregates, and
// queries with subqueries/HAVING are flattened to their aggregate core. The
// join/filter/group shapes — which drive synopsis choice and reuse — are
// preserved.
func TPCH(sf float64, seed int64) *Workload {
	if sf <= 0 {
		sf = 0.01
	}
	r := rand.New(rand.NewSource(seed))
	cat := storage.NewCatalog()
	var rows int64

	nNation := len(nationNames)
	nSupp := maxRows(sf, 10000)
	nCust := maxRows(sf, 150000)
	nPart := maxRows(sf, 200000)
	nPartSupp := nPart * 4
	nOrders := maxRows(sf, 1500000)
	nLine := nOrders * 4

	// region
	rb := storage.NewBuilder("region", storage.Schema{
		{Name: "region.r_regionkey", Typ: storage.Int64},
		{Name: "region.r_name", Typ: storage.String},
	})
	rb.Grow(len(regionNames))
	for i, name := range regionNames {
		rb.Int(0, int64(i))
		rb.Str(1, name)
	}
	cat.Register(rb.Build(1))
	rows += int64(len(regionNames))

	// nation
	nb := storage.NewBuilder("nation", storage.Schema{
		{Name: "nation.n_nationkey", Typ: storage.Int64},
		{Name: "nation.n_name", Typ: storage.String},
		{Name: "nation.n_regionkey", Typ: storage.Int64},
	})
	nb.Grow(nNation)
	for i, name := range nationNames {
		nb.Int(0, int64(i))
		nb.Str(1, name)
		nb.Int(2, int64(i%len(regionNames)))
	}
	cat.Register(nb.Build(1))
	rows += int64(nNation)

	// supplier
	sb := storage.NewBuilder("supplier", storage.Schema{
		{Name: "supplier.s_suppkey", Typ: storage.Int64},
		{Name: "supplier.s_nationkey", Typ: storage.Int64},
		{Name: "supplier.s_acctbal", Typ: storage.Float64},
	})
	sb.Grow(nSupp)
	for i := 0; i < nSupp; i++ {
		sb.Int(0, int64(i))
		sb.Int(1, int64(r.Intn(nNation)))
		sb.Float(2, r.Float64()*10000-1000)
	}
	cat.Register(sb.Build(2))
	rows += int64(nSupp)

	// customer
	cb := storage.NewBuilder("customer", storage.Schema{
		{Name: "customer.c_custkey", Typ: storage.Int64},
		{Name: "customer.c_nationkey", Typ: storage.Int64},
		{Name: "customer.c_mktsegment", Typ: storage.String},
		{Name: "customer.c_acctbal", Typ: storage.Float64},
	})
	cb.Grow(nCust)
	for i := 0; i < nCust; i++ {
		cb.Int(0, int64(i))
		cb.Int(1, int64(r.Intn(nNation)))
		cb.Str(2, pick(r, segments))
		cb.Float(3, r.Float64()*10000-1000)
	}
	cat.Register(cb.Build(2))
	rows += int64(nCust)

	// part
	pb := storage.NewBuilder("part", storage.Schema{
		{Name: "part.p_partkey", Typ: storage.Int64},
		{Name: "part.p_brand", Typ: storage.String},
		{Name: "part.p_type", Typ: storage.String},
		{Name: "part.p_size", Typ: storage.Int64},
		{Name: "part.p_container", Typ: storage.String},
		{Name: "part.p_retailprice", Typ: storage.Float64},
	})
	pb.Grow(nPart)
	for i := 0; i < nPart; i++ {
		pb.Int(0, int64(i))
		pb.Str(1, pick(r, brands))
		pb.Str(2, pick(r, partTypes))
		pb.Int(3, int64(r.Intn(50)+1))
		pb.Str(4, pick(r, containers))
		pb.Float(5, 900+r.Float64()*1100)
	}
	cat.Register(pb.Build(2))
	rows += int64(nPart)

	// partsupp
	psb := storage.NewBuilder("partsupp", storage.Schema{
		{Name: "partsupp.ps_partkey", Typ: storage.Int64},
		{Name: "partsupp.ps_suppkey", Typ: storage.Int64},
		{Name: "partsupp.ps_availqty", Typ: storage.Int64},
		{Name: "partsupp.ps_supplycost", Typ: storage.Float64},
	})
	psb.Grow(nPartSupp)
	for i := 0; i < nPartSupp; i++ {
		psb.Int(0, int64(i%nPart))
		psb.Int(1, int64(r.Intn(nSupp)))
		psb.Int(2, int64(r.Intn(9999)+1))
		psb.Float(3, 1+r.Float64()*999)
	}
	cat.Register(psb.Build(4))
	rows += int64(nPartSupp)

	// orders (dates span ~2400 days like 1992..1998)
	ob := storage.NewBuilder("orders", storage.Schema{
		{Name: "orders.o_orderkey", Typ: storage.Int64},
		{Name: "orders.o_custkey", Typ: storage.Int64},
		{Name: "orders.o_orderstatus", Typ: storage.String},
		{Name: "orders.o_totalprice", Typ: storage.Float64},
		{Name: "orders.o_orderdate", Typ: storage.Int64},
		{Name: "orders.o_orderpriority", Typ: storage.String},
	})
	ob.Grow(nOrders)
	for i := 0; i < nOrders; i++ {
		ob.Int(0, int64(i))
		ob.Int(1, int64(r.Intn(nCust)))
		ob.Str(2, pick(r, orderStatuses))
		ob.Float(3, 1000+r.Float64()*450000)
		ob.Int(4, int64(r.Intn(2400)))
		ob.Str(5, pick(r, priorities))
	}
	cat.Register(ob.Build(4))
	rows += int64(nOrders)

	// lineitem
	lb := storage.NewBuilder("lineitem", storage.Schema{
		{Name: "lineitem.l_orderkey", Typ: storage.Int64},
		{Name: "lineitem.l_partkey", Typ: storage.Int64},
		{Name: "lineitem.l_suppkey", Typ: storage.Int64},
		{Name: "lineitem.l_quantity", Typ: storage.Float64},
		{Name: "lineitem.l_extendedprice", Typ: storage.Float64},
		{Name: "lineitem.l_discount", Typ: storage.Float64},
		{Name: "lineitem.l_returnflag", Typ: storage.String},
		{Name: "lineitem.l_linestatus", Typ: storage.String},
		{Name: "lineitem.l_shipdate", Typ: storage.Int64},
		{Name: "lineitem.l_shipmode", Typ: storage.String},
	})
	lb.Grow(nLine)
	for i := 0; i < nLine; i++ {
		qty := float64(r.Intn(50) + 1)
		lb.Int(0, int64(i/4)) // ~4 lines per order
		lb.Int(1, int64(r.Intn(nPart)))
		lb.Int(2, int64(r.Intn(nSupp)))
		lb.Float(3, qty)
		lb.Float(4, qty*(900+r.Float64()*1100))
		lb.Float(5, float64(r.Intn(11))/100)
		lb.Str(6, pick(r, returnFlags))
		lb.Str(7, pick(r, lineStatuses))
		lb.Int(8, int64(r.Intn(2400)))
		lb.Str(9, pick(r, shipmodes))
	}
	cat.Register(lb.Build(8))
	rows += int64(nLine)

	return &Workload{
		Name:      "tpch",
		Catalog:   cat,
		Templates: tpchTemplates(),
		TotalRows: rows,
	}
}

func maxRows(sf float64, base int) int {
	n := int(sf * float64(base))
	if n < 10 {
		n = 10
	}
	return n
}

// date returns a random day offset with at least span days of headroom.
func date(r *rand.Rand, span int) int { return r.Intn(2400 - span) }

// tpchTemplates returns the paper's 18 approximable templates, with Fig. 6
// epochs: (1) q6,q14,q17  (2) q5,q8,q11,q12  (3) q1,q3,q16,q19
// (4) q7,q9,q13,q18.
func tpchTemplates() []Template {
	return []Template{
		{Name: "q1", Epoch: 3, Instantiate: func(r *rand.Rand) string {
			return fmt.Sprintf(`SELECT l_returnflag, l_linestatus, SUM(l_quantity), SUM(l_extendedprice), AVG(l_discount), COUNT(*) FROM lineitem WHERE l_shipdate <= %d GROUP BY l_returnflag, l_linestatus`, 2300+r.Intn(100))
		}},
		{Name: "q3", Epoch: 3, Instantiate: func(r *rand.Rand) string {
			return fmt.Sprintf(`SELECT o_orderpriority, SUM(l_extendedprice) FROM lineitem JOIN orders ON l_orderkey = o_orderkey JOIN customer ON o_custkey = c_custkey WHERE c_mktsegment = '%s' AND o_orderdate < %d GROUP BY o_orderpriority`, pick(r, segments), 1000+date(r, 1400))
		}},
		{Name: "q5", Epoch: 2, Instantiate: func(r *rand.Rand) string {
			d := date(r, 365)
			return fmt.Sprintf(`SELECT n_name, SUM(l_extendedprice) FROM lineitem JOIN orders ON l_orderkey = o_orderkey JOIN customer ON o_custkey = c_custkey JOIN nation ON c_nationkey = n_nationkey WHERE o_orderdate BETWEEN %d AND %d GROUP BY n_name`, d, d+365)
		}},
		{Name: "q6", Epoch: 1, Instantiate: func(r *rand.Rand) string {
			d := date(r, 365)
			disc := float64(r.Intn(8)) / 100
			return fmt.Sprintf(`SELECT SUM(l_extendedprice) FROM lineitem WHERE l_shipdate BETWEEN %d AND %d AND l_discount >= %.2f AND l_quantity < %d`, d, d+365, disc, 24+r.Intn(2))
		}},
		{Name: "q7", Epoch: 4, Instantiate: func(r *rand.Rand) string {
			return fmt.Sprintf(`SELECT n_name, SUM(l_extendedprice) FROM lineitem JOIN supplier ON l_suppkey = s_suppkey JOIN nation ON s_nationkey = n_nationkey WHERE l_shipdate >= %d GROUP BY n_name`, date(r, 730))
		}},
		{Name: "q8", Epoch: 2, Instantiate: func(r *rand.Rand) string {
			return fmt.Sprintf(`SELECT o_orderpriority, AVG(l_extendedprice) FROM lineitem JOIN orders ON l_orderkey = o_orderkey JOIN part ON l_partkey = p_partkey WHERE p_type = '%s' GROUP BY o_orderpriority`, pick(r, partTypes))
		}},
		{Name: "q9", Epoch: 4, Instantiate: func(r *rand.Rand) string {
			return fmt.Sprintf(`SELECT n_name, SUM(ps_supplycost) FROM partsupp JOIN supplier ON ps_suppkey = s_suppkey JOIN nation ON s_nationkey = n_nationkey WHERE ps_availqty > %d GROUP BY n_name`, 1000+r.Intn(5000))
		}},
		{Name: "q10", Instantiate: func(r *rand.Rand) string {
			d := date(r, 90)
			return fmt.Sprintf(`SELECT n_name, SUM(l_extendedprice) FROM lineitem JOIN orders ON l_orderkey = o_orderkey JOIN customer ON o_custkey = c_custkey JOIN nation ON c_nationkey = n_nationkey WHERE l_returnflag = 'R' AND o_orderdate >= %d GROUP BY n_name`, d)
		}},
		{Name: "q11", Epoch: 2, Instantiate: func(r *rand.Rand) string {
			return fmt.Sprintf(`SELECT s_nationkey, SUM(ps_supplycost) FROM partsupp JOIN supplier ON ps_suppkey = s_suppkey WHERE ps_availqty < %d GROUP BY s_nationkey`, 2000+r.Intn(6000))
		}},
		{Name: "q12", Epoch: 2, Instantiate: func(r *rand.Rand) string {
			return fmt.Sprintf(`SELECT l_shipmode, COUNT(*) FROM lineitem JOIN orders ON l_orderkey = o_orderkey WHERE l_shipmode IN ('%s', '%s') AND l_shipdate >= %d GROUP BY l_shipmode`, pick(r, shipmodes), pick(r, shipmodes), date(r, 365))
		}},
		{Name: "q13", Epoch: 4, Instantiate: func(r *rand.Rand) string {
			return fmt.Sprintf(`SELECT c_mktsegment, COUNT(*) FROM orders JOIN customer ON o_custkey = c_custkey WHERE o_totalprice > %d GROUP BY c_mktsegment`, 10000+r.Intn(100000))
		}},
		{Name: "q14", Epoch: 1, Instantiate: func(r *rand.Rand) string {
			d := date(r, 30)
			return fmt.Sprintf(`SELECT p_brand, SUM(l_extendedprice) FROM lineitem JOIN part ON l_partkey = p_partkey WHERE l_shipdate BETWEEN %d AND %d GROUP BY p_brand`, d, d+30)
		}},
		{Name: "q15", Instantiate: func(r *rand.Rand) string {
			d := date(r, 90)
			return fmt.Sprintf(`SELECT l_suppkey, SUM(l_extendedprice) FROM lineitem WHERE l_shipdate BETWEEN %d AND %d GROUP BY l_suppkey`, d, d+90)
		}},
		{Name: "q16", Epoch: 3, Instantiate: func(r *rand.Rand) string {
			return fmt.Sprintf(`SELECT p_brand, COUNT(*) FROM partsupp JOIN part ON ps_partkey = p_partkey WHERE p_size IN (%d, %d, %d) GROUP BY p_brand`, 1+r.Intn(15), 16+r.Intn(15), 31+r.Intn(15))
		}},
		{Name: "q17", Epoch: 1, Instantiate: func(r *rand.Rand) string {
			return fmt.Sprintf(`SELECT AVG(l_quantity), SUM(l_extendedprice) FROM lineitem JOIN part ON l_partkey = p_partkey WHERE p_brand = '%s' AND p_container = '%s'`, pick(r, brands), pick(r, containers))
		}},
		{Name: "q18", Epoch: 4, Instantiate: func(r *rand.Rand) string {
			return fmt.Sprintf(`SELECT o_orderpriority, SUM(l_quantity) FROM lineitem JOIN orders ON l_orderkey = o_orderkey WHERE o_totalprice > %d GROUP BY o_orderpriority`, 50000+r.Intn(250000))
		}},
		{Name: "q19", Epoch: 3, Instantiate: func(r *rand.Rand) string {
			return fmt.Sprintf(`SELECT SUM(l_extendedprice) FROM lineitem JOIN part ON l_partkey = p_partkey WHERE p_container = '%s' AND l_quantity BETWEEN %d AND %d`, pick(r, containers), 1+r.Intn(10), 20+r.Intn(20))
		}},
		{Name: "q20", Instantiate: func(r *rand.Rand) string {
			return fmt.Sprintf(`SELECT ps_suppkey, SUM(ps_availqty) FROM partsupp JOIN part ON ps_partkey = p_partkey WHERE p_type = '%s' GROUP BY ps_suppkey`, pick(r, partTypes))
		}},
	}
}

// TPCHEpoch returns the template names of the given Fig. 6 epoch (1..4).
func TPCHEpoch(epoch int) []string {
	var out []string
	for _, t := range tpchTemplates() {
		if t.Epoch == epoch {
			out = append(out, t.Name)
		}
	}
	return out
}
