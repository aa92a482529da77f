package stats

import (
	"math"
	"slices"
)

// A sink keeps every group's aggregate state as a row of float64 cells in
// one Slab, and only the cells its aggregates read (Terms): the paper's
// §IV-B running HT state, one term a cell. Every aggregate of a group shares
// the leading cells — Σw, which is the row count on exact input, and on
// weighted input Σw(w−1) — and then holds its own:
//
//	SUM       Σwy, and Σw(w−1)y² when weighted
//	AVG       SUM's, and Σw(w−1)y when weighted
//	COUNT     none
//	MIN, MAX  the extremum, merged by min or max
//
// Each cell adds the same terms in the same row and merge order as the
// GroupAccumulator it stands for would (Observe, Merge), so the assembled
// accumulator (Terms.Accumulator) is bit-identical to one folded row at a
// time. Unweighted input is exact: w ≡ 1, so the fold adds y where the
// accumulator adds 1·y — the same number — and forms no variance term, so
// a non-finite y (0·∞ is NaN) cannot reach one.

// Number is the element type of a column an aggregate folds.
type Number interface{ ~int64 | ~float64 }

// The cells every aggregate of a group shares, first in the group's row.
const (
	cellW  = 0 // Σw
	cellWC = 1 // Σw(w−1), weighted input only
)

// cellOp is how a cell starts and merges.
type cellOp int8

const (
	opSum cellOp = iota // from +0, by +
	opMin               // from +Inf, by <
	opMax               // from −Inf, by >
)

// aggCells is where one aggregate's own cells sit in a group's row, -1 for
// a cell it does not hold: y is Σwy, or the extremum of MIN/MAX; yy is
// Σw(w−1)y²; cy is Σw(w−1)y.
type aggCells struct {
	kind      AggKind
	y, yy, cy int
}

// Terms is the cell layout of one sink's aggregates over its input: which
// cells a group's row holds and which aggregate reads which. It is fixed
// when the sink binds its columns and shared by every partial.
type Terms struct {
	weighted bool
	aggs     []aggCells
	ops      []cellOp  // by cell
	empty    []float64 // one group's row before any row folds; nil: all +0
}

// NewTerms lays out the cells of the aggregates kinds over weighted (HT,
// from a sampler) or exact input.
func NewTerms(kinds []AggKind, weighted bool) *Terms {
	t := &Terms{weighted: weighted, aggs: make([]aggCells, len(kinds)), ops: make([]cellOp, 1, 2+3*len(kinds))}
	if weighted {
		t.ops = append(t.ops, opSum) // cellWC
	}
	cell := func(op cellOp) int {
		t.ops = append(t.ops, op)
		return len(t.ops) - 1
	}
	for k, kind := range kinds {
		c := aggCells{kind: kind, y: -1, yy: -1, cy: -1}
		switch kind {
		case Sum, Avg:
			c.y = cell(opSum)
			if weighted {
				c.yy = cell(opSum)
				if kind == Avg {
					c.cy = cell(opSum)
				}
			}
		case Min:
			c.y = cell(opMin)
		case Max:
			c.y = cell(opMax)
		}
		t.aggs[k] = c
	}
	if slices.ContainsFunc(t.ops, func(op cellOp) bool { return op != opSum }) {
		t.empty = make([]float64, len(t.ops))
		for c, op := range t.ops {
			switch op {
			case opMin:
				t.empty[c] = math.Inf(1)
			case opMax:
				t.empty[c] = math.Inf(-1)
			}
		}
	}
	return t
}

// NewSlab returns an empty slab of the terms' rows. Only a row with a MIN
// or MAX cell starts other than all +0 or merges other than by +.
func (t *Terms) NewSlab() Slab {
	if t.empty == nil {
		return NewSumSlab(len(t.ops))
	}
	return Slab{stride: len(t.ops), empty: t.empty, ops: t.ops}
}

// Accumulator assembles aggregate k's state for group g out of s's cells;
// a term the aggregate does not read is zero. Estimate, Variance and
// Interval then read it as they read one folded row at a time.
func (t *Terms) Accumulator(s *Slab, g int32, k int) GroupAccumulator {
	row := s.Row(g)
	a := t.aggs[k]
	acc := GroupAccumulator{Kind: a.kind, SumN: row[cellW]}
	if t.weighted {
		acc.VarN = row[cellWC]
	}
	switch a.kind {
	case Sum, Avg:
		acc.SumY = row[a.y]
		if a.yy >= 0 {
			acc.VarY = row[a.yy]
		}
		if a.cy >= 0 {
			acc.CovYN = row[a.cy]
		}
	case Min:
		acc.MinV = row[a.y]
	case Max:
		acc.MaxV = row[a.y]
	}
	return acc
}

// Slab holds groups' cells: group g's row is the stride cells from
// g·stride on, groups numbered densely from 0 in the order they opened. A
// reset slab keeps its memory, so a partial that folds morsel after morsel
// grows it only on its first ones.
type Slab struct {
	Cells  []float64
	stride int
	empty  []float64 // one group's row before any row folds; nil: all +0
	ops    []cellOp  // by cell; nil: every cell sums
}

// NewSumSlab returns an empty slab of stride cells a group, every one a sum
// from +0.
func NewSumSlab(stride int) Slab { return Slab{stride: stride} }

// Row returns group g's cells.
func (s *Slab) Row(g int32) []float64 {
	at := int(g) * s.stride
	return s.Cells[at : at+s.stride : at+s.stride]
}

// Reset forgets every group and keeps the memory.
func (s *Slab) Reset() { s.Cells = s.Cells[:0] }

// Open gives the groups from the slab's length up to groups their empty
// rows.
func (s *Slab) Open(groups int) {
	had, want := len(s.Cells), groups*s.stride
	if want <= had {
		return
	}
	s.Cells = slices.Grow(s.Cells, want-had)[:want]
	if s.empty == nil {
		clear(s.Cells[had:])
		return
	}
	for at := had; at < want; at += s.stride {
		copy(s.Cells[at:], s.empty)
	}
}

// Merge folds o — a slab of the same layout over a disjoint part of the
// input — into s: o's group g lands on s's group ids[g]. An id at or past
// s's length is a group new to s, and such ids run in o's order from that
// length on: the group takes o's row as it is. Every other row combines
// cell by cell. Sums re-associate once per merge, so merging in a fixed
// order keeps the cells bit-reproducible.
func (s *Slab) Merge(o *Slab, ids []int32) {
	st := s.stride
	had := int32(len(s.Cells) / st)
	for og, g := range ids {
		src := o.Cells[og*st : og*st+st]
		if g >= had {
			s.Cells = append(s.Cells, src...)
			continue
		}
		dst := s.Cells[int(g)*st : int(g)*st+st]
		if s.ops == nil {
			for c, x := range src {
				dst[c] += x
			}
			continue
		}
		for c, x := range src {
			switch s.ops[c] {
			case opSum:
				dst[c] += x
			case opMin:
				if x < dst[c] {
					dst[c] = x
				}
			case opMax:
				if x > dst[c] {
					dst[c] = x
				}
			}
		}
	}
}

// Rows is one batch's live rows as a fold reads them.
type Rows struct {
	// IDs is each live row's group, in live-row order; nil folds every
	// live row into group 0 (an aggregate over no group columns).
	IDs []int32
	// Sel lists the live rows' positions, ascending; nil: rows 0..N−1.
	Sel []int32
	N   int
	// W is the HT weight by position; nil on exact input (w ≡ 1).
	W []float64
}

// at returns live row j's position.
func (r *Rows) at(j int) int {
	if r.Sel != nil {
		return int(r.Sel[j])
	}
	return j
}

// live returns the number of live rows.
func (r *Rows) live() int {
	if r.Sel != nil {
		return len(r.Sel)
	}
	return r.N
}

// Column is the column an aggregate folds, by position: F64 or I64 holds
// it, the other is nil; both are nil for an aggregate that reads none
// (COUNT).
type Column struct {
	F64 []float64
	I64 []int64
}

// FoldScratch is a folder's working memory, reused batch to batch: the
// integer columns of a row-major pass converted to float64 by position, a
// buffer for each of a pass's two aggregates.
type FoldScratch struct{ Conv [2][]float64 }

// floats returns column c as float64s by position, over n positions: its
// own values, or integers converted into buffer slot — float64(v), the
// conversion a fold applies to every value.
func (sc *FoldScratch) floats(slot int, c Column, n int) []float64 {
	if c.F64 != nil {
		return c.F64
	}
	out := slices.Grow(sc.Conv[slot][:0], n)[:n]
	for i, v := range c.I64[:n] {
		out[i] = float64(v)
	}
	sc.Conv[slot] = out
	return out
}

// Fold folds a batch's live rows into their groups' cells — col(k) being
// aggregate k's column, asked for only of an aggregate that reads one — and
// returns width summed over the live rows
// (integers, exact in any order; 0 for a nil width). Grouped rows fold
// row-major (foldGrouped); a global aggregate's cells are few and fold
// column by column, each sum kept in a register (foldSole). MIN and MAX
// fold a column at a time either way.
func (t *Terms) Fold(s *Slab, r Rows, col func(k int) Column, width []int32, sc *FoldScratch) int64 {
	if r.IDs == nil {
		t.foldSole(s, r, col)
	} else {
		t.foldGrouped(s, r, col, sc)
	}
	for k, a := range t.aggs {
		if a.kind != Min && a.kind != Max {
			continue
		}
		if c := col(k); c.F64 != nil {
			foldExtremum(s, a.y, a.kind == Min, r, c.F64)
		} else {
			foldExtremum(s, a.y, a.kind == Min, r, c.I64)
		}
	}
	if width == nil {
		return 0
	}
	var bytes int64
	if r.Sel == nil {
		for _, w := range width[:r.N] {
			bytes += int64(w)
		}
		return bytes
	}
	for _, i := range r.Sel {
		bytes += int64(width[i])
	}
	return bytes
}

// rowPass is what one row-major pass folds: the shared cells when count is
// set, and up to two SUM or AVG aggregates, each its column as float64s by
// position and its cells y, yy and cy (yy and cy weighted only, cy −1 for a
// SUM). A fold's cells are short dependency chains through memory, and a
// pass's terms overlap only across its own cells, so folding a row's cells
// in one pass beats a pass per aggregate when its groups are few (q1's
// four). Each arity has a loop of its own: one loop over the aggregates
// cost more than the passes it saved, in its own overhead and in the
// registers it took from the row loop.
type rowPass struct {
	count     bool
	n         int
	col       [2][]float64
	y, yy, cy [2]int
}

// foldGrouped folds grouped rows in row-major passes of up to two SUM and
// AVG aggregates, the first of which also adds each live row's weight to Σw
// (1 on exact input) and, weighted, w(w−1) to Σw(w−1). Every cell takes
// the terms a GroupAccumulator observing the rows one at a time would (wy;
// w(w−1)y²; w(w−1)y), by the same expressions, in row order.
func (t *Terms) foldGrouped(s *Slab, r Rows, col func(k int) Column, sc *FoldScratch) {
	k := 0 // the next aggregate a pass may take
	for p := (rowPass{count: true}); ; p.count = false {
		for p.n = 0; k < len(t.aggs) && p.n < 2; k++ {
			if a := t.aggs[k]; a.kind == Sum || a.kind == Avg {
				p.col[p.n], p.y[p.n], p.yy[p.n], p.cy[p.n] = sc.floats(p.n, col(k), r.N), a.y, a.yy, a.cy
				p.n++
			}
		}
		if !p.count && p.n == 0 {
			return
		}
		if r.W == nil {
			foldExact(s.Cells, s.stride, r.IDs, r.Sel, &p)
		} else {
			foldWeighted(s.Cells, s.stride, r, &p)
		}
	}
}

// foldExact is one row-major pass over exact grouped rows, ids in live-row
// order and sel their positions (nil: 0..len(ids)−1). A pass after the
// first adds +0 to Σw, which leaves a count — it starts at +0 — as it is.
func foldExact(cells []float64, st int, ids, sel []int32, p *rowPass) {
	one := 0.0
	if p.count {
		one = 1
	}
	c1, c2, y1, y2 := p.col[0], p.col[1], p.y[0], p.y[1]
	switch {
	case p.n == 0:
		for _, g := range ids {
			cells[int(g)*st+cellW] += one
		}
	case p.n == 1 && sel == nil:
		c1 = c1[:len(ids)]
		for j, g := range ids {
			at := int(g) * st
			cells[at+cellW] += one
			cells[at+y1] += c1[j]
		}
	case p.n == 1:
		for j, g := range ids {
			i, at := sel[j], int(g)*st
			cells[at+cellW] += one
			cells[at+y1] += c1[i]
		}
	case sel == nil:
		c1, c2 = c1[:len(ids)], c2[:len(ids)]
		for j, g := range ids {
			at := int(g) * st
			cells[at+cellW] += one
			cells[at+y1] += c1[j]
			cells[at+y2] += c2[j]
		}
	default:
		for j, g := range ids {
			i, at := sel[j], int(g)*st
			cells[at+cellW] += one
			cells[at+y1] += c1[i]
			cells[at+y2] += c2[i]
		}
	}
}

// foldWeighted is one row-major pass over weighted grouped rows.
func foldWeighted(cells []float64, st int, r Rows, p *rowPass) {
	sel, ws, count := r.Sel, r.W, p.count
	c1, c2 := p.col[0], p.col[1]
	y1, yy1, cy1, y2, yy2, cy2 := p.y[0], p.yy[0], p.cy[0], p.y[1], p.yy[1], p.cy[1]
	for j, g := range r.IDs {
		i := j
		if sel != nil {
			i = int(sel[j])
		}
		w := ws[i]
		c := w * (w - 1)
		row := cells[int(g)*st : int(g)*st+st]
		if count {
			row[cellW] += w
			row[cellWC] += c
		}
		if p.n == 0 {
			continue
		}
		y := c1[i]
		row[y1] += w * y
		row[yy1] += c * y * y
		if cy1 >= 0 {
			row[cy1] += c * y
		}
		if p.n == 1 {
			continue
		}
		y = c2[i]
		row[y2] += w * y
		row[yy2] += c * y * y
		if cy2 >= 0 {
			row[cy2] += c * y
		}
	}
}

// foldSole is Fold over a global aggregate's one group: the shared cells in
// one pass — on exact input one addition of the row count, which adding 1 a
// row to an integer-valued float below 2⁵³ rounds to alike — then each SUM
// and AVG column in a typed loop of its own (foldSum).
func (t *Terms) foldSole(s *Slab, r Rows, col func(k int) Column) {
	cells := s.Cells
	if r.W == nil {
		cells[cellW] += float64(r.live())
	} else {
		n, c := cells[cellW], cells[cellWC]
		for j := range r.live() {
			w := r.W[r.at(j)]
			n += w
			c += w * (w - 1)
		}
		cells[cellW], cells[cellWC] = n, c
	}
	for k, a := range t.aggs {
		if a.kind != Sum && a.kind != Avg {
			continue
		}
		if c := col(k); c.F64 != nil {
			foldSum(t.weighted, a, cells, r, c.F64)
		} else {
			foldSum(t.weighted, a, cells, r, c.I64)
		}
	}
}

// foldSum folds col into a global aggregate's SUM or AVG cells a, its sums
// kept in registers across the rows.
func foldSum[T Number](weighted bool, a aggCells, cells []float64, r Rows, col []T) {
	if !weighted {
		y := cells[a.y]
		if r.Sel == nil {
			for _, v := range col[:r.N] {
				y += float64(v)
			}
		} else {
			for _, i := range r.Sel {
				y += float64(col[i])
			}
		}
		cells[a.y] = y
		return
	}
	sy, syy := cells[a.y], cells[a.yy]
	var scy float64
	if a.cy >= 0 {
		scy = cells[a.cy]
	}
	for j := range r.live() {
		i := r.at(j)
		y, w := float64(col[i]), r.W[i]
		sy += w * y
		c := w * (w - 1)
		syy += c * y * y
		scy += c * y
	}
	cells[a.y], cells[a.yy] = sy, syy
	if a.cy >= 0 {
		cells[a.cy] = scy
	}
}

// foldExtremum folds col into the MIN (min set) or MAX cell at off of each
// live row's group. A NaN never replaces the cell: it compares false.
func foldExtremum[T Number](s *Slab, off int, min bool, r Rows, col []T) {
	st := s.stride
	if r.IDs == nil {
		m := s.Cells[off]
		for j := range r.live() {
			y := float64(col[r.at(j)])
			if min && y < m || !min && y > m {
				m = y
			}
		}
		s.Cells[off] = m
		return
	}
	cells := s.Cells[off:]
	for j, g := range r.IDs {
		y := float64(col[r.at(j)])
		at := int(g) * st
		if min && y < cells[at] || !min && y > cells[at] {
			cells[at] = y
		}
	}
}
