package exec

import (
	"fmt"
	"math/bits"

	"github.com/tasterdb/taster/internal/storage"
	"github.com/tasterdb/taster/internal/synopses"
)

// joinBatchRows caps the number of joined rows emitted per output batch. A
// high-fanout join (skewed key) would otherwise accumulate every match for a
// probe batch into one unbounded output batch; the prober instead carries its
// probe position across Next calls and emits fixed-size chunks.
const joinBatchRows = storage.BatchSize

// joinSpec is the resolved column binding of one equi-join: key and payload
// column positions on both sides plus the output schema. It is computed once
// and shared by every prober of the join (one per morsel). The payload is
// what something above the join reads, not what the two sides hold: the
// build table keeps every column (its cache identity and its charge are the
// full rows'), the probe gathers from it selectively.
//
// If either input carries a sampler weight column, the join merges them into
// a single trailing weight column whose value is the product of the sides'
// weights (joining two independent samples multiplies inclusion
// probabilities).
type joinSpec struct {
	leftKeys  []int
	rightKeys []int

	leftWeight  int // index of weight col in left schema, -1 if none
	rightWeight int
	leftCols    []int // left columns copied to output (weight excluded)
	rightCols   []int
	outWeights  bool
	// widthAdj is what a joined row's width is short of its two sides' sum:
	// 8 when both carry a weight column, since the two merge into one.
	widthAdj int32

	// fixedKey marks a key that is one int64, float64 or bool column: a
	// row's word is then that column's fixedWord. Any other key — a string
	// column, or several columns — is numbered through the table's id map
	// (joinTable.ids). Both sides' key columns share their types
	// (resolveJoinSpec refuses otherwise), so the word relation is exactly
	// groupKey's byte equality and the layout depends on the build side alone.
	fixedKey bool

	schema storage.Schema
}

// resolveJoinSpec binds join key columns by name against both input schemas,
// and the output to the columns of either side that one of the names in need
// binds to (nil need: every column). Paired key columns must share a type, as
// planner.Query.Validate demands of every query it admits.
func resolveJoinSpec(ls, rs storage.Schema, leftKeys, rightKeys, need []string) (*joinSpec, error) {
	if len(leftKeys) != len(rightKeys) || len(leftKeys) == 0 {
		return nil, fmt.Errorf("exec: hash join needs equal, non-empty key lists")
	}
	j := &joinSpec{}
	for _, k := range leftKeys {
		i := ls.Index(k)
		if i < 0 {
			return nil, fmt.Errorf("exec: hash join: left key %q not in %v", k, ls.Names())
		}
		j.leftKeys = append(j.leftKeys, i)
	}
	for _, k := range rightKeys {
		i := rs.Index(k)
		if i < 0 {
			return nil, fmt.Errorf("exec: hash join: right key %q not in %v", k, rs.Names())
		}
		j.rightKeys = append(j.rightKeys, i)
	}
	for k, li := range j.leftKeys {
		if lc, rc := ls[li], rs[j.rightKeys[k]]; lc.Typ != rc.Typ {
			return nil, fmt.Errorf("exec: hash join: %s is %s but %s is %s; join keys must share a type", lc.Name, lc.Typ, rc.Name, rc.Typ)
		}
	}
	j.fixedKey = len(j.rightKeys) == 1 && rs[j.rightKeys[0]].Typ != storage.String
	j.leftWeight = ls.Index(synopses.WeightCol)
	j.rightWeight = rs.Index(synopses.WeightCol)
	j.outWeights = j.leftWeight >= 0 || j.rightWeight >= 0
	if j.leftWeight >= 0 && j.rightWeight >= 0 {
		j.widthAdj = 8
	}
	payload := func(s storage.Schema, weight int) (cols []int) {
		for _, i := range neededCols(s, need) {
			if i != weight {
				cols = append(cols, i)
				j.schema = append(j.schema, s[i])
			}
		}
		return cols
	}
	j.leftCols = payload(ls, j.leftWeight)
	j.rightCols = payload(rs, j.rightWeight)
	if j.outWeights {
		j.schema = append(j.schema, storage.Col{Name: synopses.WeightCol, Typ: storage.Float64})
	}
	return j, nil
}

// joinTable is the materialized, indexed build side of one join. Every build
// row's key is one word — a fixedKey's fixedWord, any other key's dense id —
// and every word's match list is one contiguous run of matchRows: the build
// rows with that key, in ascending row order, found through one of two
// map-free indexes laid out in the same integer passes as the runs
// (buildWordIndex picks by the observed word span). The build is serial, so
// the table is the same at any worker count; once built it is immutable and
// safe for concurrent probing.
type joinTable struct {
	// rows are all build rows concatenated, in input order and full-width;
	// rows.Width holds what each costs to exchange, so a matched pair's width
	// is two array reads.
	rows *storage.Batch

	// ids numbers the distinct groupKey bytes of a key that is not fixed,
	// 0..k−1 in first-seen build-row order (nil for a fixedKey table). The
	// numbers are the words: k ≤ rows, so they always take the dense index.
	ids map[string]int32

	// matchRows holds every word's run of build rows back to back.
	matchRows []int32

	// Dense-range index (denseOffs non-nil): the ordered words span at most
	// denseSpanFactor× the build rows (or less than denseSpanFloor), and key
	// w's run is matchRows[denseOffs[k]:denseOffs[k+1]] with k =
	// orderedWord(w) − denseMin. Every surrogate key of the generated
	// workloads, and every id-numbered key, lands here.
	denseMin  uint64
	denseOffs []int32

	// Open-addressing index (otherwise): power-of-two slots sized once from
	// the row count, Fibonacci hashing, linear probing, no growth. A slot
	// carries its key's run bounds inline, so a probe touches one cache line
	// before the run itself.
	slots     []wordSlot
	slotShift uint

	// shared marks a table owned by a JoinCache: it outlives the query that
	// built it and is probed by concurrent queries, so its rows are not
	// pool memory and release leaves it alone.
	shared bool
}

// wordSlot is one open-addressing slot: key word w owns
// matchRows[lo:hi]. Every present key has at least one row, so hi == 0 marks
// an empty slot.
type wordSlot struct {
	w      uint64
	lo, hi int32
}

const (
	// denseSpanFactor bounds the dense index's offset array at this many
	// entries per build row; sparser key sets take the open-addressing index.
	denseSpanFactor = 4
	// denseSpanFloor admits any span below it whatever the row count. A
	// selective build-side filter leaves few rows scattered over the
	// dimension's whole key range, but the probe side is still the fact
	// table: zeroing a 256 KB offset array once costs less than hashing
	// every probe row (BenchmarkJoinProbe: 3.4 vs 12.6 ns per probe).
	denseSpanFloor = 1 << 16
	// fibMul is 2^64/φ: multiplying by it and keeping the top bits spreads
	// consecutive and strided keys evenly over a power-of-two table.
	fibMul = 0x9E3779B97F4A7C15
)

// orderedWord flips the sign bit of a fixedWord, so int64 keys compare (and
// subtract) in unsigned space as they do signed: a key range straddling
// zero stays a short span, and MinInt64..MaxInt64 is span 2^64−1 with no
// overflow anywhere. For float64 and bool words it is merely a bijection,
// which is all the index needs.
func orderedWord(w uint64) uint64 { return w ^ (1 << 63) }

func (t *joinTable) empty() bool { return t == nil || t.rows == nil || t.rows.Len() == 0 }

// release returns a query-owned table's build rows to the pool; the rows of
// a cache-owned table stay with the cache.
func (t *joinTable) release(p *storage.VecPool) {
	if t == nil || t.shared || t.rows == nil {
		return
	}
	p.Release(t.rows)
	t.rows = nil
}

// lookupWord returns the ascending build rows whose key word is w (nil when
// there are none).
func (t *joinTable) lookupWord(w uint64) []int32 {
	if t.denseOffs != nil {
		// A word below denseMin wraps to a huge k and fails the bound check.
		k := orderedWord(w) - t.denseMin
		if k >= uint64(len(t.denseOffs)-1) {
			return nil
		}
		return t.matchRows[t.denseOffs[k]:t.denseOffs[k+1]]
	}
	mask := uint64(len(t.slots) - 1)
	for s := (w * fibMul) >> t.slotShift; ; s = (s + 1) & mask {
		sl := &t.slots[s]
		if sl.hi == 0 {
			return nil
		}
		if sl.w == w {
			return t.matchRows[sl.lo:sl.hi]
		}
	}
}

// drainBuild materializes an operator's full output in input order, charging
// shuffle bytes (the build side of a hash join is exchanged in the simulated
// cluster). Consumed batches are released: the joinTable keeps only the
// copied concatenation, which comes from the run's pool — or, with keep set,
// from the heap, because a JoinCache is about to own it past this query.
func drainBuild(op Operator, ctx *Context, keep bool) (*storage.Batch, error) {
	// Collect first, copy second: the concatenation is then allocated at its
	// final size in one shot (row-at-a-time appends from zero capacity paid a
	// realloc cascade per query) and copied column-major.
	var bufs []*storage.Batch
	total := 0
	for {
		b, err := op.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		ctx.Stats.ShuffleBytes += b.LiveWidth()
		bufs = append(bufs, b)
		total += b.Rows()
	}
	var rows *storage.Batch
	if keep {
		rows = storage.NewBatch(op.Schema(), total)
		rows.Width = make([]int32, 0, total)
	} else {
		rows = ctx.Pool.GetBatch(op.Schema(), total)
		rows.Width = ctx.Pool.GetSel(total)
	}
	for _, b := range bufs {
		if b.Sel != nil {
			for c, v := range rows.Vecs {
				v.AppendGather(b.Vecs[c], b.Sel)
			}
			for _, i := range b.Sel {
				rows.Width = append(rows.Width, b.Width[i])
			}
		} else {
			for c, v := range rows.Vecs {
				v.Extend(b.Vecs[c])
			}
			rows.Width = append(rows.Width, b.Width...)
		}
		ctx.Pool.Release(b)
	}
	return rows, nil
}

// buildJoinTable indexes the materialized build rows: every row's key word
// (keyWords), then the word index over them (buildWordIndex). It runs
// serially — a handful of O(n) passes over flat arrays — so the table is
// the same whatever the worker count.
func buildJoinTable(spec *joinSpec, rows *storage.Batch) *joinTable {
	t := &joinTable{rows: rows}
	if rows.Len() == 0 {
		return t
	}
	buildWordIndex(t, t.keyWords(spec))
	return t
}

// keyWords returns every build row's key word. A fixedKey's word is its
// column's fixedWord, which mirrors groupKey's per-type encoding (two's
// complement, Float64bits, 0/1), so word equality is byte-key equality
// within the type. Any other key's word is its dense id, assigned in
// first-seen row order through t.ids over the rows' groupKey bytes — the
// map the prober looks its own key bytes up in.
func (t *joinTable) keyWords(spec *joinSpec) []uint64 {
	words := make([]uint64, t.rows.Len())
	if spec.fixedKey {
		kv := t.rows.Vecs[spec.rightKeys[0]]
		for i := range words {
			words[i] = fixedWord(kv, i)
		}
		return words
	}
	t.ids = make(map[string]int32)
	var key []byte
	for i := range words {
		key = groupKey(key, t.rows.Vecs, spec.rightKeys, i)
		id, ok := t.ids[string(key)]
		if !ok {
			id = int32(len(t.ids))
			t.ids[string(key)] = id
		}
		words[i] = uint64(id)
	}
	return words
}

// buildWordIndex lays out the runs of matchRows and the index over them:
// ascending row order within every run falls out of the forward fill pass,
// and no Go map is involved.
func buildWordIndex(t *joinTable, words []uint64) {
	// Pass 1: the ordered word span decides the index layout.
	lo, hi := orderedWord(words[0]), orderedWord(words[0])
	for _, w := range words[1:] {
		w = orderedWord(w)
		if w < lo {
			lo = w
		}
		if w > hi {
			hi = w
		}
	}
	n := len(words)
	t.matchRows = make([]int32, n)
	if span := hi - lo; span < uint64(n)*denseSpanFactor || span < denseSpanFloor {
		buildDenseIndex(t, words, lo, int(span)+1)
	} else {
		buildSlotIndex(t, words)
	}
}

// buildDenseIndex lays the runs out in word order behind an offset array
// indexed by orderedWord − min.
func buildDenseIndex(t *joinTable, words []uint64, min uint64, nk int) {
	// Pass 2: count word k into offs[k+2], then prefix-sum, leaving offs[k+1]
	// at the start of k's run. Pass 3 fills through offs[k+1], which walks it
	// to the end of k's run — the start of k+1's — so the array finishes as
	// the exclusive offsets with no cursor copy.
	offs := make([]int32, nk+2)
	for _, w := range words {
		offs[orderedWord(w)-min+2]++
	}
	for k := 2; k < len(offs); k++ {
		offs[k] += offs[k-1]
	}
	for i, w := range words {
		k := orderedWord(w) - min + 1
		t.matchRows[offs[k]] = int32(i)
		offs[k]++
	}
	t.denseMin, t.denseOffs = min, offs[:nk+1]
}

// buildSlotIndex lays the runs out in slot order behind an open-addressing
// table of at least 2n slots (load ≤ 1/2, so a probe always meets an empty
// slot and the table never grows).
func buildSlotIndex(t *joinTable, words []uint64) {
	n := len(words)
	nSlots := 1 << bits.Len(uint(2*n-1))
	slots := make([]wordSlot, nSlots)
	shift := uint(64 - bits.TrailingZeros(uint(nSlots)))
	mask := uint64(nSlots - 1)

	// Pass 2: claim a slot per distinct word, counting its rows in hi.
	slotOf := make([]int32, n)
	for i, w := range words {
		s := (w * fibMul) >> shift
		for slots[s].hi != 0 && slots[s].w != w {
			s = (s + 1) & mask
		}
		slots[s].w = w
		slots[s].hi++
		slotOf[i] = int32(s)
	}
	// Counts -> run starts, in slot order (any fixed order works: a run's
	// position never shows, only its contents do).
	var at int32
	for s := range slots {
		if c := slots[s].hi; c != 0 {
			slots[s].lo, slots[s].hi = at, at
			at += c
		}
	}
	// Pass 3: fill each run in ascending row order; hi walks from the run's
	// start to its end.
	for i, s := range slotOf {
		t.matchRows[slots[s].hi] = int32(i)
		slots[s].hi++
	}
	t.slots, t.slotShift = slots, shift
}

// joinProber streams probe batches against a built joinTable, emitting joined
// output in chunks of at most joinBatchRows rows. It carries the probe
// position (current batch, row, and match offset) across calls, so a skewed
// key with huge fanout never inflates a single output batch.
type joinProber struct {
	spec  *joinSpec
	table *joinTable
	pool  *storage.VecPool

	cur      *storage.Batch
	curRow   int // position among cur's live rows
	matches  []int32
	matchPos int
	pending  bool
	key      []byte

	// lrows/mrows accumulate the (probe row, build row) pairs of the output
	// chunk under construction; flush gathers them into the output batch
	// column-major, one type dispatch per column instead of one per value.
	// lrows are physical row indices into cur — the probe walks cur under its
	// selection and never gathers it — so the pairs are flushed before cur is
	// released.
	lrows []int32
	mrows []int32
}

// next pulls probe batches via fetch until it has filled one output chunk (or
// the probe side is exhausted). It returns nil at end of stream and never
// returns an empty batch.
func (p *joinProber) next(fetch func() (*storage.Batch, error)) (*storage.Batch, error) {
	var out *storage.Batch
	for {
		if p.cur == nil {
			b, err := fetch()
			if err != nil {
				return nil, err
			}
			if b == nil {
				if out != nil && out.Len() > 0 {
					return out, nil
				}
				return nil, nil
			}
			if b.Rows() == 0 {
				p.pool.Release(b)
				continue
			}
			p.cur, p.curRow, p.pending = b, 0, false
		}
		for live := p.cur.Rows(); p.curRow < live; {
			row := p.curRow
			if p.cur.Sel != nil {
				row = int(p.cur.Sel[row])
			}
			if !p.pending {
				p.matches = p.matchesOf(row)
				p.matchPos = 0
				p.pending = true
			}
			if p.matchPos < len(p.matches) {
				if out == nil {
					out = p.pool.GetBatch(p.spec.schema, joinBatchRows)
					out.Width = p.pool.GetSel(joinBatchRows)
				}
				room := joinBatchRows - out.Len() - len(p.lrows)
				take := len(p.matches) - p.matchPos
				if take > room {
					take = room
				}
				for _, m := range p.matches[p.matchPos : p.matchPos+take] {
					p.lrows = append(p.lrows, int32(row))
					p.mrows = append(p.mrows, m)
				}
				p.matchPos += take
				if p.matchPos < len(p.matches) {
					// Chunk filled mid-fanout: emit it and resume this row's
					// remaining matches on the next call.
					p.flush(out)
					return out, nil
				}
			}
			p.pending = false
			p.curRow++
			if out != nil && out.Len()+len(p.lrows) >= joinBatchRows {
				p.flush(out)
				return out, nil
			}
		}
		// The probe batch is fully consumed; gather any pairs still
		// referencing it before its memory is recycled.
		p.flush(out)
		p.pool.Release(p.cur)
		p.cur = nil
	}
}

// matchesOf returns the build rows matching physical row `row` of cur: its
// key word's run. A key that is not fixed finds its word — its build-side id
// — through the table's id map; bytes no build row carries match nothing.
func (p *joinProber) matchesOf(row int) []int32 {
	if p.spec.fixedKey {
		return p.table.lookupWord(fixedWord(p.cur.Vecs[p.spec.leftKeys[0]], row))
	}
	p.key = groupKey(p.key, p.cur.Vecs, p.spec.leftKeys, row)
	id, ok := p.table.ids[string(p.key)]
	if !ok {
		return nil
	}
	return p.table.lookupWord(uint64(id))
}

// flush gathers the accumulated pairs into out column-major — the payload
// columns the spec names, the merged weight, and each pair's width. Pair
// order is exactly the row-at-a-time emit order.
func (p *joinProber) flush(out *storage.Batch) {
	if len(p.lrows) == 0 {
		return
	}
	col := 0
	for _, lc := range p.spec.leftCols {
		out.Vecs[col].AppendGather(p.cur.Vecs[lc], p.lrows)
		col++
	}
	build := p.table.rows
	for _, rc := range p.spec.rightCols {
		out.Vecs[col].AppendGather(build.Vecs[rc], p.mrows)
		col++
	}
	if p.spec.outWeights {
		dst := out.Vecs[col].F64
		lw, rw := p.spec.leftWeight, p.spec.rightWeight
		for i, row := range p.lrows {
			w := 1.0
			if lw >= 0 {
				w *= p.cur.Vecs[lw].F64[row]
			}
			if rw >= 0 {
				w *= build.Vecs[rw].F64[p.mrows[i]]
			}
			dst = append(dst, w)
		}
		out.Vecs[col].F64 = dst
	}
	// A joined row is both its sides' rows side by side; two weight columns
	// merge into one.
	lwid, rwid, adj := p.cur.Width, build.Width, p.spec.widthAdj
	for i, row := range p.lrows {
		out.Width = append(out.Width, lwid[row]+rwid[p.mrows[i]]-adj)
	}
	p.lrows, p.mrows = p.lrows[:0], p.mrows[:0]
}

// probe is the one probe loop (morselProbeOp.Next runs it per morsel): it
// streams child against the built table, charging probe shuffle bytes and
// output CPU to ctx. Over an empty table —
// only reached by a run that materializes a sampler byproduct, plain empty
// joins short-circuit before probing — it drains child so samplers below the
// join still observe their stream, and emits nothing.
func (p *joinProber) probe(child Operator, ctx *Context) (*storage.Batch, error) {
	if p.table.empty() {
		for {
			b, err := child.Next()
			if err != nil || b == nil {
				return nil, err
			}
			ctx.Stats.ShuffleBytes += b.LiveWidth()
			ctx.Pool.Release(b)
		}
	}
	out, err := p.next(func() (*storage.Batch, error) {
		b, err := child.Next()
		if b != nil {
			ctx.Stats.ShuffleBytes += b.LiveWidth()
		}
		return b, err
	})
	if out != nil {
		ctx.Stats.CPUTuples += int64(out.Len())
	}
	return out, err
}
