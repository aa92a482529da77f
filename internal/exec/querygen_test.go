package exec_test

// Generated SQL against the oracle. A query is drawn from the workload
// grammar over the TPC-H catalog: a fact table and a foreign-key path of up
// to three hops from it, up to two GROUP BY columns from any table on the
// path (join keys, a fact column beside a dimension column and two
// dimensions included), one to three of SUM / AVG / COUNT, and up to three
// WHERE terms — a column against literals read from the table's own rows
// with =, <>, <, <=, >, >=, IN or BETWEEN. Every query runs EXACT and must
// meet the oracle: answers and charges, at workers 1 / 4 / 8 and over a
// retiled catalog (mustMeetOracle).

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/tasterdb/taster/internal/sqlparser"
	"github.com/tasterdb/taster/internal/storage"
	"github.com/tasterdb/taster/internal/workload"
)

// fkEdge is one foreign-key join of the TPC-H catalog: from.fromCol
// references to.toCol, so a hop from → to is N:1.
type fkEdge struct{ from, fromCol, to, toCol string }

var tpchEdges = []fkEdge{
	{"lineitem", "l_orderkey", "orders", "o_orderkey"},
	{"lineitem", "l_partkey", "part", "p_partkey"},
	{"lineitem", "l_suppkey", "supplier", "s_suppkey"},
	{"partsupp", "ps_partkey", "part", "p_partkey"},
	{"partsupp", "ps_suppkey", "supplier", "s_suppkey"},
	{"orders", "o_custkey", "customer", "c_custkey"},
	{"customer", "c_nationkey", "nation", "n_nationkey"},
	{"supplier", "s_nationkey", "nation", "n_nationkey"},
	{"nation", "n_regionkey", "region", "r_regionkey"},
}

// queryFacts are the tables a generated query reads as its fact table.
var queryFacts = []string{"lineitem", "lineitem", "partsupp", "orders", "customer", "supplier"}

// genBytes draws a query's choices from fuzz bytes; past their end every
// draw is 0, so any input — the empty one too — is a query.
type genBytes struct {
	data []byte
	at   int
}

// draw returns a choice in [0, n).
func (g *genBytes) draw(n int) int {
	if n <= 1 || g.at >= len(g.data) {
		return 0
	}
	b := g.data[g.at]
	g.at++
	return int(b) % n
}

// drawRow returns a row in [0, n) from two bytes.
func (g *genBytes) drawRow(n int) int {
	if n <= 1 {
		return 0
	}
	return (g.draw(256)<<8 | g.draw(256)) % n
}

// genColumn is one column a generated query can name: its unqualified name,
// the table it lives in and its type.
type genColumn struct {
	name  string
	table *storage.Table
	typ   storage.Type
}

// genQuery turns bytes into one EXACT query over the TPC-H catalog cat.
func genQuery(cat *storage.Catalog, data []byte) string {
	g := &genBytes{data: data}
	fact := queryFacts[g.draw(len(queryFacts))]
	tables := []string{fact}
	var from strings.Builder
	from.WriteString(fact)
	for hops := g.draw(4); hops > 0; hops-- {
		var next []fkEdge
		for _, e := range tpchEdges {
			if slices.Contains(tables, e.from) && !slices.Contains(tables, e.to) {
				next = append(next, e)
			}
		}
		if len(next) == 0 {
			break
		}
		e := next[g.draw(len(next))]
		tables = append(tables, e.to)
		fmt.Fprintf(&from, " JOIN %s ON %s = %s", e.to, e.fromCol, e.toCol)
	}

	var cols, numeric []genColumn
	for _, name := range tables {
		tbl, err := cat.Table(name)
		if err != nil {
			panic(err)
		}
		for _, c := range tbl.Schema() {
			gc := genColumn{name: c.Name[strings.LastIndexByte(c.Name, '.')+1:], table: tbl, typ: c.Typ}
			cols = append(cols, gc)
			if c.Typ.Numeric() {
				numeric = append(numeric, gc)
			}
		}
	}

	var groups []string
	for k := g.draw(3); k > 0; k-- {
		if c := cols[g.draw(len(cols))].name; !slices.Contains(groups, c) {
			groups = append(groups, c)
		}
	}
	sel := append([]string(nil), groups...)
	for k := 1 + g.draw(3); k > 0; k-- {
		switch g.draw(3) {
		case 0:
			sel = append(sel, "COUNT(*)")
		case 1:
			sel = append(sel, "SUM("+numeric[g.draw(len(numeric))].name+")")
		default:
			sel = append(sel, "AVG("+numeric[g.draw(len(numeric))].name+")")
		}
	}

	var terms []string
	for k := g.draw(4); k > 0; k-- {
		c := cols[g.draw(len(cols))]
		lit := func() string { return genLiteral(c, g.drawRow(c.table.NumRows())) }
		switch g.draw(8) {
		case 0, 1, 2, 3, 4, 5:
			op := []string{"=", "<>", "<", "<=", ">", ">="}[g.draw(6)]
			terms = append(terms, fmt.Sprintf("%s %s %s", c.name, op, lit()))
		case 6:
			vals := []string{lit()}
			for n := g.draw(3); n > 0; n-- {
				vals = append(vals, lit())
			}
			terms = append(terms, fmt.Sprintf("%s IN (%s)", c.name, strings.Join(vals, ", ")))
		default:
			terms = append(terms, fmt.Sprintf("%s BETWEEN %s AND %s", c.name, lit(), lit()))
		}
	}

	sql := "SELECT " + strings.Join(sel, ", ") + " FROM " + from.String()
	if len(terms) > 0 {
		sql += " WHERE " + strings.Join(terms, " AND ")
	}
	if len(groups) > 0 {
		sql += " GROUP BY " + strings.Join(groups, ", ")
	}
	return sql + " EXACT"
}

// genLiteral renders column c's value at row i as a SQL literal. The
// grammar has no minus sign, so a negative number is read as its magnitude.
func genLiteral(c genColumn, i int) string {
	if c.table.NumRows() == 0 {
		return "0"
	}
	v := c.table.Column(c.table.Schema().Index(c.name)).Get(i)
	switch c.typ {
	case storage.String:
		return "'" + v.S + "'"
	case storage.Int64:
		if v.I < 0 {
			v.I = -v.I
		}
		return strconv.FormatInt(v.I, 10)
	default:
		return strconv.FormatFloat(math.Abs(v.F), 'f', -1, 64)
	}
}

// grammarQuery reports whether sql, as typed, is a query of the generator's
// grammar: it parses and validates, and every join is a foreign-key hop, so
// no fuzzed text can ask the row-at-a-time oracle for a cross product.
func grammarQuery(cat *storage.Catalog, sql string) bool {
	q, err := sqlparser.Parse(sql, cat)
	if err != nil || q.Validate() != nil {
		return false
	}
	for _, j := range q.Joins {
		fk := false
		for _, e := range tpchEdges {
			l, r := j.LeftCol, j.RightCol
			if strings.HasSuffix(l, "."+e.toCol) {
				l, r = r, l
			}
			fk = fk || (strings.HasSuffix(l, "."+e.fromCol) && strings.HasSuffix(r, "."+e.toCol))
		}
		if !fk {
			return false
		}
	}
	return true
}

// queryCatalogs is the TPC-H catalog generated queries read, and a copy of
// it retiled at 797 rows a partition — prime, so partition boundaries land
// nowhere near the morsel grid.
func queryCatalogs() (w, retiled *workload.Workload) {
	w, retiled = workload.TPCH(0.002, 1), workload.TPCH(0.002, 1)
	retiled.Catalog.Repartition(797)
	return w, retiled
}

// FuzzQuery: text that is a query of the grammar (grammarQuery) runs as
// typed, EXACT; any other input is the generator's bytes (genQuery). Either
// way the engine must meet the oracle. The corpus is seeded with every
// TPC-H template's instances, an unfiltered two-hop chain and Int64 ranges
// on either side of the key index's rule.
func FuzzQuery(f *testing.F) {
	w, retiled := queryCatalogs()
	r := rand.New(rand.NewSource(1))
	for _, tpl := range w.Templates {
		f.Add(tpl.Instantiate(r))
	}
	f.Add("\x01\x03\x00\x02\x05\x01\x07\x02\x01\x02\x03")
	// An unfiltered two-hop chain: every fact batch joins both dimensions by
	// lookup.
	f.Add("SELECT n_name, SUM(l_extendedprice), COUNT(*) FROM lineitem JOIN supplier ON l_suppkey = s_suppkey JOIN nation ON s_nationkey = n_nationkey GROUP BY n_name")
	// Int64 ranges either side of the key index's rule, on the fact table's
	// leaf and on a join's build side: a selective one (read through the
	// column's key index), an empty one and an unselective one (read by the
	// range kernel).
	for _, where := range []string{
		"l_shipdate BETWEEN 1000 AND 1060 AND l_discount > 0.04", "l_shipdate > 1500 AND l_shipdate < 1501", "l_shipdate >= 200",
	} {
		f.Add("SELECT l_returnflag, SUM(l_extendedprice), COUNT(*) FROM lineitem WHERE " + where + " GROUP BY l_returnflag")
	}
	for _, where := range []string{"o_orderdate BETWEEN 700 AND 760", "o_orderdate BETWEEN 900 AND 899", "o_orderdate <= 2000"} {
		f.Add("SELECT o_orderpriority, SUM(l_extendedprice) FROM lineitem JOIN orders ON l_orderkey = o_orderkey WHERE " + where + " GROUP BY o_orderpriority")
	}
	f.Fuzz(func(t *testing.T, in string) {
		sql := in + " EXACT"
		if !grammarQuery(w.Catalog, sql) {
			sql = genQuery(w.Catalog, []byte(in))
		}
		mustMeetOracle(t, "fuzz", w.Catalog, retiled.Catalog, sql)
	})
}

// TestQueryGrammarMeetsTheOracle is FuzzQuery's deterministic half: 200
// generated queries, each from 48 bytes of a seeded stream.
func TestQueryGrammarMeetsTheOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("answers 200 generated queries six ways")
	}
	w, retiled := queryCatalogs()
	r := rand.New(rand.NewSource(13))
	data := make([]byte, 48)
	for i := 0; i < 200; i++ {
		r.Read(data)
		sql := genQuery(w.Catalog, data)
		mustMeetOracle(t, fmt.Sprintf("query %d", i), w.Catalog, retiled.Catalog, sql)
	}
}
