package sqlparser

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/tasterdb/taster/internal/expr"
	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/planner"
	"github.com/tasterdb/taster/internal/stats"
	"github.com/tasterdb/taster/internal/storage"
)

// Parse parses and binds one SQL query against the catalog, returning the
// planner IR.
func Parse(sql string, cat *storage.Catalog) (*planner.Query, error) {
	toks, err := lex(sql)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, cat: cat}
	q, err := p.parseQuery()
	if err != nil {
		return nil, fmt.Errorf("sql: %w (near position %d)", err, p.cur().pos)
	}
	return q, nil
}

type parser struct {
	toks []token
	i    int
	cat  *storage.Catalog
	q    *planner.Query
}

func (p *parser) cur() token { return p.toks[p.i] }

// next consumes the current token; EOF is sticky.
func (p *parser) next() token {
	t := p.toks[p.i]
	if t.kind != tokEOF {
		p.i++
	}
	return t
}

func (p *parser) accept(kind tokenKind, text string) bool {
	if p.cur().kind == kind && (text == "" || p.cur().text == text) {
		p.i++
		return true
	}
	return false
}

func (p *parser) expect(kind tokenKind, text string) (token, error) {
	if p.cur().kind == kind && (text == "" || p.cur().text == text) {
		return p.next(), nil
	}
	return token{}, fmt.Errorf("expected %q, found %q", text, p.cur().text)
}

// selectItem is a parsed projection before binding.
type selectItem struct {
	isAgg bool
	kind  stats.AggKind
	col   string // raw column name; "" for COUNT(*)
	alias string
}

func (p *parser) parseQuery() (*planner.Query, error) {
	p.q = &planner.Query{}
	if _, err := p.expect(tokKeyword, "SELECT"); err != nil {
		return nil, err
	}
	items, err := p.parseSelectList()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	if err := p.parseFrom(); err != nil {
		return nil, err
	}
	if p.accept(tokKeyword, "WHERE") {
		if err := p.parseWhere(); err != nil {
			return nil, err
		}
	}
	if p.accept(tokKeyword, "GROUP") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			col, err := p.parseColumnRef()
			if err != nil {
				return nil, err
			}
			p.q.GroupBy = append(p.q.GroupBy, col)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
	}
	if p.accept(tokKeyword, "ORDER") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			name, err := p.parseOrderColumn(items)
			if err != nil {
				return nil, err
			}
			p.q.OrderBy = append(p.q.OrderBy, name)
			desc := p.accept(tokKeyword, "DESC")
			if !desc {
				p.accept(tokKeyword, "ASC")
			}
			p.q.Desc = append(p.q.Desc, desc)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
	}
	if p.accept(tokKeyword, "LIMIT") {
		t, err := p.expect(tokNumber, "")
		if err != nil {
			return nil, err
		}
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("bad LIMIT %q", t.text)
		}
		p.q.Limit = n
	}
	if p.accept(tokKeyword, "ERROR") {
		if err := p.parseAccuracy(); err != nil {
			return nil, err
		}
	}
	if p.accept(tokKeyword, "EXACT") {
		p.q.Exact = true
	}
	if p.cur().kind != tokEOF {
		return nil, fmt.Errorf("trailing input %q", p.cur().text)
	}
	return p.q, p.bindSelect(items)
}

func (p *parser) parseSelectList() ([]selectItem, error) {
	var items []selectItem
	for {
		it, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		items = append(items, it)
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	return items, nil
}

func (p *parser) parseSelectItem() (selectItem, error) {
	t := p.cur()
	if t.kind == tokKeyword {
		switch t.text {
		case "COUNT", "SUM", "AVG", "MIN", "MAX":
			p.next()
			it := selectItem{isAgg: true}
			switch t.text {
			case "COUNT":
				it.kind = stats.Count
			case "SUM":
				it.kind = stats.Sum
			case "AVG":
				it.kind = stats.Avg
			case "MIN":
				it.kind = stats.Min
			case "MAX":
				it.kind = stats.Max
			}
			if _, err := p.expect(tokSymbol, "("); err != nil {
				return it, err
			}
			if p.accept(tokSymbol, "*") {
				if it.kind != stats.Count {
					return it, fmt.Errorf("%s(*) is not valid SQL", t.text)
				}
			} else {
				col, err := p.parseColumnRef()
				if err != nil {
					return it, err
				}
				it.col = col
			}
			if _, err := p.expect(tokSymbol, ")"); err != nil {
				return it, err
			}
			if p.accept(tokKeyword, "AS") {
				a, err := p.expect(tokIdent, "")
				if err != nil {
					return it, err
				}
				it.alias = a.text
			}
			return it, nil
		}
	}
	col, err := p.parseColumnRef()
	if err != nil {
		return selectItem{}, err
	}
	it := selectItem{col: col}
	if p.accept(tokKeyword, "AS") {
		a, err := p.expect(tokIdent, "")
		if err != nil {
			return it, err
		}
		it.alias = a.text
	}
	return it, nil
}

// parseColumnRef parses ident or ident.ident into a raw name.
func (p *parser) parseColumnRef() (string, error) {
	t, err := p.expect(tokIdent, "")
	if err != nil {
		return "", fmt.Errorf("expected column name, found %q", p.cur().text)
	}
	name := t.text
	if p.accept(tokSymbol, ".") {
		t2, err := p.expect(tokIdent, "")
		if err != nil {
			return "", err
		}
		name += "." + t2.text
	}
	return name, nil
}

// parseOrderColumn accepts either a column or an aggregate expression that
// also appears in the select list (resolved to its output alias).
func (p *parser) parseOrderColumn(items []selectItem) (string, error) {
	t := p.cur()
	if t.kind == tokKeyword {
		switch t.text {
		case "COUNT", "SUM", "AVG", "MIN", "MAX":
			it, err := p.parseSelectItem()
			if err != nil {
				return "", err
			}
			spec := plan.AggSpec{Kind: it.kind, Col: it.col, Alias: it.alias}
			return spec.DefaultAlias(), nil
		}
	}
	return p.parseColumnRef()
}

func (p *parser) parseFrom() error {
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return fmt.Errorf("expected table name, found %q", p.cur().text)
	}
	if err := p.addTable(name.text); err != nil {
		return err
	}
	for {
		if p.accept(tokKeyword, "INNER") {
			if _, err := p.expect(tokKeyword, "JOIN"); err != nil {
				return err
			}
		} else if !p.accept(tokKeyword, "JOIN") {
			break
		}
		t, err := p.expect(tokIdent, "")
		if err != nil {
			return fmt.Errorf("expected table name after JOIN")
		}
		if err := p.addTable(t.text); err != nil {
			return err
		}
		if _, err := p.expect(tokKeyword, "ON"); err != nil {
			return err
		}
		for {
			lc, err := p.parseColumnRef()
			if err != nil {
				return err
			}
			if _, err := p.expect(tokSymbol, "="); err != nil {
				return err
			}
			rc, err := p.parseColumnRef()
			if err != nil {
				return err
			}
			lq, lt, err := p.bindColumn(lc)
			if err != nil {
				return err
			}
			rq, rt, err := p.bindColumn(rc)
			if err != nil {
				return err
			}
			p.q.Joins = append(p.q.Joins, planner.JoinPred{
				LeftTable: lt, LeftCol: lq, RightTable: rt, RightCol: rq,
			})
			if !p.accept(tokKeyword, "AND") {
				break
			}
		}
	}
	return nil
}

func (p *parser) addTable(name string) error {
	tbl, err := p.cat.Table(name)
	if err != nil {
		return err
	}
	for _, t := range p.q.Tables {
		if t.Name == name {
			return fmt.Errorf("table %q appears twice (self-joins unsupported)", name)
		}
	}
	p.q.Tables = append(p.q.Tables, planner.TableRef{Name: name, Table: tbl})
	return nil
}

// bindColumn resolves a raw column reference to its qualified name and
// owning table across the FROM tables.
func (p *parser) bindColumn(raw string) (qualified, table string, err error) {
	var hits []int
	for i, t := range p.q.Tables {
		if t.Table.Schema().Index(raw) >= 0 {
			hits = append(hits, i)
		}
	}
	switch len(hits) {
	case 0:
		return "", "", fmt.Errorf("unknown column %q", raw)
	case 1:
		t := p.q.Tables[hits[0]]
		idx := t.Table.Schema().Index(raw)
		return t.Table.Schema()[idx].Name, t.Name, nil
	default:
		return "", "", fmt.Errorf("ambiguous column %q", raw)
	}
}

func (p *parser) parseWhere() error {
	for {
		terms, err := p.parseConjunct()
		if err != nil {
			return err
		}
		p.q.Filter = append(p.q.Filter, terms...)
		if !p.accept(tokKeyword, "AND") {
			break
		}
	}
	return nil
}

// parseConjunct parses one conjunct of the WHERE clause into its terms:
// col op literal and col IN (...) are one, col BETWEEN lo AND hi is two.
func (p *parser) parseConjunct() ([]expr.Term, error) {
	colRaw, err := p.parseColumnRef()
	if err != nil {
		return nil, err
	}
	qcol, table, err := p.bindColumn(colRaw)
	if err != nil {
		return nil, err
	}
	colTyp := p.columnType(table, qcol)

	if p.accept(tokKeyword, "IN") {
		if _, err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		var vals []storage.Value
		for {
			v, err := p.parseLiteral(colTyp)
			if err != nil {
				return nil, err
			}
			vals = append(vals, v)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		return []expr.Term{expr.In(qcol, vals...)}, nil
	}
	if p.accept(tokKeyword, "BETWEEN") {
		lo, err := p.parseLiteral(colTyp)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseLiteral(colTyp)
		if err != nil {
			return nil, err
		}
		return []expr.Term{expr.Compare(qcol, expr.GE, lo), expr.Compare(qcol, expr.LE, hi)}, nil
	}
	opTok, err := p.expect(tokSymbol, "")
	if err != nil {
		return nil, fmt.Errorf("expected comparison operator, found %q", p.cur().text)
	}
	var op expr.CmpOp
	switch opTok.text {
	case "=":
		op = expr.EQ
	case "<":
		op = expr.LT
	case "<=":
		op = expr.LE
	case ">":
		op = expr.GT
	case ">=":
		op = expr.GE
	case "<>":
		op = expr.NE
	default:
		return nil, fmt.Errorf("unsupported operator %q", opTok.text)
	}
	v, err := p.parseLiteral(colTyp)
	if err != nil {
		return nil, err
	}
	return []expr.Term{expr.Compare(qcol, op, v)}, nil
}

// columnType returns the declared type of a bound column.
func (p *parser) columnType(table, qcol string) storage.Type {
	for _, t := range p.q.Tables {
		if t.Name != table {
			continue
		}
		if i := t.Table.Schema().Index(qcol); i >= 0 {
			return t.Table.Schema()[i].Typ
		}
	}
	return storage.Float64
}

// parseLiteral parses a literal coerced toward the column type (integer
// literals against DOUBLE columns become floats, etc.).
func (p *parser) parseLiteral(want storage.Type) (storage.Value, error) {
	t := p.next()
	switch t.kind {
	case tokString:
		return storage.StringValue(t.text), nil
	case tokNumber:
		if strings.ContainsRune(t.text, '.') || want == storage.Float64 {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return storage.Value{}, fmt.Errorf("bad number %q", t.text)
			}
			return storage.FloatValue(f), nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return storage.Value{}, fmt.Errorf("bad number %q", t.text)
		}
		return storage.IntValue(n), nil
	}
	return storage.Value{}, fmt.Errorf("expected literal, found %q", t.text)
}

// parseAccuracy parses "WITHIN x% AT CONFIDENCE y%" (ERROR consumed).
func (p *parser) parseAccuracy() error {
	if _, err := p.expect(tokKeyword, "WITHIN"); err != nil {
		return err
	}
	x, err := p.parsePercent()
	if err != nil {
		return err
	}
	p.accept(tokKeyword, "AT")
	if _, err := p.expect(tokKeyword, "CONFIDENCE"); err != nil {
		return err
	}
	y, err := p.parsePercent()
	if err != nil {
		return err
	}
	p.q.Accuracy = stats.AccuracySpec{RelError: x / 100, Confidence: y / 100}
	if !p.q.Accuracy.Valid() {
		return fmt.Errorf("invalid accuracy: error %v%% at confidence %v%%", x, y)
	}
	return nil
}

func (p *parser) parsePercent() (float64, error) {
	t, err := p.expect(tokNumber, "")
	if err != nil {
		return 0, fmt.Errorf("expected percentage, found %q", p.cur().text)
	}
	v, err := strconv.ParseFloat(t.text, 64)
	if err != nil {
		return 0, err
	}
	if _, err := p.expect(tokSymbol, "%"); err != nil {
		return 0, err
	}
	return v, nil
}

// bindSelect validates the select list against GROUP BY and fills the IR's
// group/aggregate fields. Non-aggregate select items must appear in GROUP BY.
func (p *parser) bindSelect(items []selectItem) error {
	groupSet := make(map[string]bool)
	for i, g := range p.q.GroupBy {
		qg, _, err := p.bindColumn(g)
		if err != nil {
			return err
		}
		p.q.GroupBy[i] = qg
		groupSet[qg] = true
	}
	for _, it := range items {
		if !it.isAgg {
			qc, _, err := p.bindColumn(it.col)
			if err != nil {
				return err
			}
			if !groupSet[qc] {
				return fmt.Errorf("column %q must appear in GROUP BY", it.col)
			}
			continue
		}
		spec := plan.AggSpec{Kind: it.kind, Alias: it.alias}
		if it.col != "" {
			qc, _, err := p.bindColumn(it.col)
			if err != nil {
				return err
			}
			spec.Col = qc
		}
		p.q.Aggs = append(p.q.Aggs, spec)
	}
	if len(p.q.Aggs) == 0 {
		return fmt.Errorf("query has no aggregates (only aggregate queries are supported)")
	}
	// Order-by columns referencing aggregates were resolved during parsing;
	// group columns bind here.
	for i, o := range p.q.OrderBy {
		if groupSet[o] {
			continue
		}
		if qc, _, err := p.bindColumn(o); err == nil {
			p.q.OrderBy[i] = qc
		}
		// otherwise assume it is an aggregate alias; exec validates.
	}
	return nil
}
