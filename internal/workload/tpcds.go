package workload

import (
	"fmt"
	"math/rand"

	"github.com/tasterdb/taster/internal/storage"
)

// TPCDS generates a TPC-DS-shaped star schema (store_sales fact with
// date_dim, item, store dimensions) at the given scale and 20 aggregate
// templates. The workload repeatedly exercises the store_sales⋈date_dim
// join, which is where the paper attributes Taster's TPC-DS advantage:
// summaries of that intermediate result get reused across queries (§VI-A).
// Here the reused summary is store_sales' own sample or sketch-join, below
// the join (docs/ARCHITECTURE.md, "Deviation from the paper").
func TPCDS(sf float64, seed int64) *Workload {
	if sf <= 0 {
		sf = 0.01
	}
	r := rand.New(rand.NewSource(seed))
	cat := storage.NewCatalog()
	var rows int64

	nDates := 365 * 5
	nItems := maxRows(sf, 18000)
	nStores := maxRows(sf, 100) // small dimension
	if nStores < 5 {
		nStores = 5
	}
	nSales := maxRows(sf, 2880000)

	categories := []string{"Books", "Electronics", "Home", "Jewelry", "Music", "Shoes", "Sports", "Toys", "Children", "Men", "Women"}
	states := []string{"CA", "NY", "TX", "WA", "IL", "GA", "OH", "MI"}

	db := storage.NewBuilder("date_dim", storage.Schema{
		{Name: "date_dim.d_date_sk", Typ: storage.Int64},
		{Name: "date_dim.d_year", Typ: storage.Int64},
		{Name: "date_dim.d_moy", Typ: storage.Int64},
		{Name: "date_dim.d_dow", Typ: storage.Int64},
	})
	for i := 0; i < nDates; i++ {
		db.Int(0, int64(i))
		db.Int(1, int64(1998+i/365))
		db.Int(2, int64((i/30)%12+1))
		db.Int(3, int64(i%7))
	}
	cat.Register(db.Build(1))
	rows += int64(nDates)

	ib := storage.NewBuilder("item", storage.Schema{
		{Name: "item.i_item_sk", Typ: storage.Int64},
		{Name: "item.i_category", Typ: storage.String},
		{Name: "item.i_brand_id", Typ: storage.Int64},
		{Name: "item.i_current_price", Typ: storage.Float64},
	})
	for i := 0; i < nItems; i++ {
		ib.Int(0, int64(i))
		ib.Str(1, pick(r, categories))
		ib.Int(2, int64(r.Intn(50)))
		ib.Float(3, 1+r.Float64()*99)
	}
	cat.Register(ib.Build(2))
	rows += int64(nItems)

	stb := storage.NewBuilder("store", storage.Schema{
		{Name: "store.s_store_sk", Typ: storage.Int64},
		{Name: "store.s_state", Typ: storage.String},
	})
	for i := 0; i < nStores; i++ {
		stb.Int(0, int64(i))
		stb.Str(1, pick(r, states))
	}
	cat.Register(stb.Build(1))
	rows += int64(nStores)

	ssb := storage.NewBuilder("store_sales", storage.Schema{
		{Name: "store_sales.ss_sold_date_sk", Typ: storage.Int64},
		{Name: "store_sales.ss_item_sk", Typ: storage.Int64},
		{Name: "store_sales.ss_store_sk", Typ: storage.Int64},
		{Name: "store_sales.ss_quantity", Typ: storage.Float64},
		{Name: "store_sales.ss_sales_price", Typ: storage.Float64},
		{Name: "store_sales.ss_net_profit", Typ: storage.Float64},
	})
	for i := 0; i < nSales; i++ {
		price := 1 + r.Float64()*99
		qty := float64(r.Intn(20) + 1)
		ssb.Int(0, int64(r.Intn(nDates)))
		ssb.Int(1, int64(r.Intn(nItems)))
		ssb.Int(2, int64(r.Intn(nStores)))
		ssb.Float(3, qty)
		ssb.Float(4, price*qty)
		ssb.Float(5, price*qty*(r.Float64()*0.4-0.1))
	}
	cat.Register(ssb.Build(8))
	rows += int64(nSales)

	year := func(r *rand.Rand) int { return 1998 + r.Intn(5) }
	moy := func(r *rand.Rand) int { return 1 + r.Intn(12) }
	tpl := func(name string, f func(r *rand.Rand) string) Template {
		return Template{Name: name, Instantiate: f}
	}

	templates := []Template{
		// store_sales ⋈ date_dim family — the recurring intermediate result.
		tpl("ds1", func(r *rand.Rand) string {
			return fmt.Sprintf(`SELECT d_moy, SUM(ss_sales_price) FROM store_sales JOIN date_dim ON ss_sold_date_sk = d_date_sk WHERE d_year = %d AND d_moy >= %d GROUP BY d_moy`, year(r), moy(r))
		}),
		tpl("ds2", func(r *rand.Rand) string {
			return fmt.Sprintf(`SELECT d_year, AVG(ss_quantity) FROM store_sales JOIN date_dim ON ss_sold_date_sk = d_date_sk WHERE d_year >= %d AND d_moy = %d GROUP BY d_year`, year(r), moy(r))
		}),
		tpl("ds3", func(r *rand.Rand) string {
			return fmt.Sprintf(`SELECT d_dow, COUNT(*) FROM store_sales JOIN date_dim ON ss_sold_date_sk = d_date_sk WHERE d_year = %d AND d_moy <= %d GROUP BY d_dow`, year(r), moy(r))
		}),
		tpl("ds4", func(r *rand.Rand) string {
			return fmt.Sprintf(`SELECT d_moy, SUM(ss_net_profit) FROM store_sales JOIN date_dim ON ss_sold_date_sk = d_date_sk WHERE d_year = %d AND d_dow < %d GROUP BY d_moy`, year(r), 1+r.Intn(6))
		}),
		tpl("ds5", func(r *rand.Rand) string {
			return fmt.Sprintf(`SELECT d_year, SUM(ss_quantity) FROM store_sales JOIN date_dim ON ss_sold_date_sk = d_date_sk WHERE d_moy = %d AND d_dow = %d GROUP BY d_year`, moy(r), r.Intn(7))
		}),
		tpl("ds6", func(r *rand.Rand) string {
			return fmt.Sprintf(`SELECT d_moy, AVG(ss_sales_price) FROM store_sales JOIN date_dim ON ss_sold_date_sk = d_date_sk WHERE d_year = %d AND d_moy > %d GROUP BY d_moy`, year(r), moy(r)-1)
		}),
		// + item dimension.
		tpl("ds7", func(r *rand.Rand) string {
			return fmt.Sprintf(`SELECT i_category, SUM(ss_sales_price) FROM store_sales JOIN item ON ss_item_sk = i_item_sk JOIN date_dim ON ss_sold_date_sk = d_date_sk WHERE i_category = '%s' AND d_year = %d GROUP BY i_category`, pick(r, categories), year(r))
		}),
		tpl("ds8", func(r *rand.Rand) string {
			return fmt.Sprintf(`SELECT i_brand_id, COUNT(*) FROM store_sales JOIN item ON ss_item_sk = i_item_sk WHERE i_category = '%s' AND i_current_price > %d GROUP BY i_brand_id`, pick(r, categories), 10+r.Intn(50))
		}),
		tpl("ds9", func(r *rand.Rand) string {
			return fmt.Sprintf(`SELECT i_category, AVG(ss_net_profit) FROM store_sales JOIN item ON ss_item_sk = i_item_sk WHERE i_category <> '%s' AND i_current_price < %d GROUP BY i_category`, pick(r, categories), 40+r.Intn(60))
		}),
		tpl("ds10", func(r *rand.Rand) string {
			return fmt.Sprintf(`SELECT i_category, SUM(ss_quantity) FROM store_sales JOIN item ON ss_item_sk = i_item_sk WHERE i_brand_id = %d GROUP BY i_category`, r.Intn(50))
		}),
		// + store dimension.
		tpl("ds11", func(r *rand.Rand) string {
			return fmt.Sprintf(`SELECT s_state, SUM(ss_sales_price) FROM store_sales JOIN store ON ss_store_sk = s_store_sk WHERE s_state = '%s' AND ss_quantity > %d GROUP BY s_state`, pick(r, states), 2+r.Intn(10))
		}),
		tpl("ds12", func(r *rand.Rand) string {
			return fmt.Sprintf(`SELECT s_state, COUNT(*) FROM store_sales JOIN store ON ss_store_sk = s_store_sk WHERE s_state <> '%s' AND ss_sales_price > %d GROUP BY s_state`, pick(r, states), 50+r.Intn(400))
		}),
		tpl("ds13", func(r *rand.Rand) string {
			return fmt.Sprintf(`SELECT s_state, AVG(ss_net_profit) FROM store_sales JOIN store ON ss_store_sk = s_store_sk JOIN date_dim ON ss_sold_date_sk = d_date_sk WHERE s_state = '%s' AND d_year = %d GROUP BY s_state`, pick(r, states), year(r))
		}),
		// single-table sweeps.
		tpl("ds14", func(r *rand.Rand) string {
			lo := 1 + r.Intn(8)
			return fmt.Sprintf(`SELECT ss_store_sk, SUM(ss_sales_price) FROM store_sales WHERE ss_quantity BETWEEN %d AND %d GROUP BY ss_store_sk`, lo, lo+8)
		}),
		tpl("ds15", func(r *rand.Rand) string {
			return fmt.Sprintf(`SELECT ss_store_sk, AVG(ss_net_profit) FROM store_sales WHERE ss_sales_price > %d AND ss_quantity < %d GROUP BY ss_store_sk`, 50+r.Intn(300), 10+r.Intn(10))
		}),
		tpl("ds16", func(r *rand.Rand) string {
			return fmt.Sprintf(`SELECT COUNT(*) FROM store_sales WHERE ss_quantity >= %d AND ss_sales_price < %d`, 1+r.Intn(10), 100+r.Intn(900))
		}),
		// three-way star.
		tpl("ds17", func(r *rand.Rand) string {
			return fmt.Sprintf(`SELECT d_year, SUM(ss_sales_price) FROM store_sales JOIN date_dim ON ss_sold_date_sk = d_date_sk JOIN item ON ss_item_sk = i_item_sk WHERE i_category = '%s' AND d_year >= %d GROUP BY d_year`, pick(r, categories), year(r))
		}),
		tpl("ds18", func(r *rand.Rand) string {
			return fmt.Sprintf(`SELECT i_category, COUNT(*) FROM store_sales JOIN date_dim ON ss_sold_date_sk = d_date_sk JOIN item ON ss_item_sk = i_item_sk WHERE i_category <> '%s' AND d_moy = %d GROUP BY i_category`, pick(r, categories), moy(r))
		}),
		tpl("ds19", func(r *rand.Rand) string {
			return fmt.Sprintf(`SELECT d_moy, SUM(ss_net_profit) FROM store_sales JOIN date_dim ON ss_sold_date_sk = d_date_sk JOIN store ON ss_store_sk = s_store_sk WHERE s_state = '%s' AND d_year = %d GROUP BY d_moy`, pick(r, states), year(r))
		}),
		tpl("ds20", func(r *rand.Rand) string {
			return fmt.Sprintf(`SELECT d_year, d_moy, SUM(ss_sales_price) FROM store_sales JOIN date_dim ON ss_sold_date_sk = d_date_sk WHERE d_year = %d AND d_dow <= %d GROUP BY d_year, d_moy`, year(r), 2+r.Intn(5))
		}),
	}

	return &Workload{Name: "tpcds", Catalog: cat, Templates: templates, TotalRows: rows}
}
