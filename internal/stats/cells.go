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

// FoldCount folds the cells every aggregate shares: each live row adds its
// weight to Σw (1 on exact input) and, weighted, w(w−1) to Σw(w−1). When
// width is set it also returns width summed over the live rows — integers,
// exact in any order — in the same pass when the rows are grouped under a
// selection.
func (t *Terms) FoldCount(s *Slab, r Rows, width []int32) int64 {
	cells, st := s.Cells, s.stride
	switch {
	case r.IDs == nil && r.W == nil:
		// Adding 1 a row to an integer-valued float below 2⁵³ is exact, so
		// one addition of the count rounds as the row-by-row ones do.
		cells[cellW] += float64(r.live())
	case r.IDs == nil:
		n, c := cells[cellW], cells[cellWC]
		for j := range r.live() {
			w := r.W[r.at(j)]
			n += w
			c += w * (w - 1)
		}
		cells[cellW], cells[cellWC] = n, c
	case r.Sel != nil && width != nil:
		var bytes int64
		if r.W == nil {
			for j, i := range r.Sel {
				cells[int(r.IDs[j])*st+cellW]++
				bytes += int64(width[i])
			}
			return bytes
		}
		for j, i := range r.Sel {
			w := r.W[i]
			row := cells[int(r.IDs[j])*st:]
			row[cellW] += w
			row[cellWC] += w * (w - 1)
			bytes += int64(width[i])
		}
		return bytes
	case r.W == nil:
		for _, g := range r.IDs {
			cells[int(g)*st+cellW]++
		}
	default:
		for j, g := range r.IDs {
			w := r.W[r.at(j)]
			row := cells[int(g)*st:]
			row[cellW] += w
			row[cellWC] += w * (w - 1)
		}
	}
	if width == nil {
		return 0
	}
	var bytes int64
	for j := range r.live() {
		bytes += int64(width[r.at(j)])
	}
	return bytes
}

// Fold folds column col into aggregate k's own cells, one typed loop per
// aggregate writing all of them in one pass. COUNT holds no cell of its
// own: FoldCount is its whole fold.
func Fold[T Number](t *Terms, s *Slab, k int, r Rows, col []T) {
	a := t.aggs[k]
	switch {
	case a.kind == Min || a.kind == Max:
		foldExtremum(s, a.y, a.kind == Min, r, col)
	case a.kind == Count:
	case !t.weighted && r.IDs == nil:
		cell := &s.Cells[a.y]
		y := *cell
		if r.Sel == nil {
			for _, v := range col[:r.N] {
				y += float64(v)
			}
		} else {
			for _, i := range r.Sel {
				y += float64(col[i])
			}
		}
		*cell = y
	case !t.weighted:
		cells, st := s.Cells[a.y:], s.stride
		if r.Sel == nil {
			col = col[:len(r.IDs)]
			for j, g := range r.IDs {
				cells[int(g)*st] += float64(col[j])
			}
		} else {
			for j, i := range r.Sel {
				cells[int(r.IDs[j])*st] += float64(col[i])
			}
		}
	case r.IDs == nil:
		row := s.Cells
		sy, syy := row[a.y], row[a.yy]
		var scy float64
		if a.cy >= 0 {
			scy = row[a.cy]
		}
		for j := range r.live() {
			i := r.at(j)
			y, w := float64(col[i]), r.W[i]
			sy += w * y
			c := w * (w - 1)
			syy += c * y * y
			scy += c * y
		}
		row[a.y], row[a.yy] = sy, syy
		if a.cy >= 0 {
			row[a.cy] = scy
		}
	case a.cy < 0:
		st := s.stride
		for j, g := range r.IDs {
			i := r.at(j)
			y, w := float64(col[i]), r.W[i]
			row := s.Cells[int(g)*st : int(g)*st+st]
			row[a.y] += w * y
			c := w * (w - 1)
			row[a.yy] += c * y * y
		}
	default:
		st := s.stride
		for j, g := range r.IDs {
			i := r.at(j)
			y, w := float64(col[i]), r.W[i]
			row := s.Cells[int(g)*st : int(g)*st+st]
			row[a.y] += w * y
			c := w * (w - 1)
			row[a.yy] += c * y * y
			row[a.cy] += c * y
		}
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
