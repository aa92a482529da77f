package exec

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

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

	// fixedKey marks a single-column join whose key type is identical and
	// fixed-width (int64/float64/bool) on both sides: the table is then
	// keyed by the fixedWord encoding instead of byte strings, removing the
	// per-probe-row key build and string hashing. The type-identity
	// requirement keeps the match relation exactly groupKey's: word
	// encodings of different types can collide (uint64(n) vs Float64bits),
	// but the byte keys carry a type tag and never match across types.
	fixedKey bool

	schema storage.Schema
}

// resolveJoinSpec binds join key columns by name against both input schemas,
// and the output to the columns of either side that one of the names in need
// binds to (nil need: every column).
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
	if len(j.leftKeys) == 1 {
		lt, rt := ls[j.leftKeys[0]].Typ, rs[j.rightKeys[0]].Typ
		j.fixedKey = lt == rt && lt != storage.String
	}
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

// joinTable is the materialized, hashed build side of one join:
// hash-partitioned sub-tables mapping key bytes to build row indices. Once
// built it is immutable and safe for concurrent probing.
//
// Partitioning is observation-invariant: each key's match list always holds
// every build row with that key in ascending row order, regardless of the
// partition count — only which sub-table owns the key changes. Probe results
// are therefore byte-identical for any partition/worker count.
type joinTable struct {
	// rows are all build rows concatenated, in input order and full-width;
	// rows.Width holds what each costs to exchange, so a matched pair's width
	// is two array reads.
	rows  *storage.Batch
	parts []map[string][]int32

	// The fixed-key fast path (joinSpec.fixedKey) replaces parts with a CSR
	// layout keyed by the single key column's fixedWord encoding: every
	// key's match list is one contiguous run of fixedRows, found through one
	// of two map-free indexes built in the same integer passes as the runs
	// (buildFixedJoinTable picks by the observed key span). Match lists are
	// identical to the byte-keyed tables' (the word encoding is injective
	// within the key type); only the build/probe hashing cost changes.
	fixedRows []int32

	// Dense-range index (denseOffs non-nil): the ordered words span at most
	// denseSpanFactor× the build rows (or less than denseSpanFloor), and key
	// w's run is fixedRows[denseOffs[k]:denseOffs[k+1]] with k =
	// orderedWord(w) − denseMin. Every surrogate key of the generated
	// workloads lands here.
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
// fixedRows[lo:hi]. Every present key has at least one row, so hi == 0 marks
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

func (t *joinTable) lookup(key []byte) []int32 {
	if len(t.parts) == 1 {
		return t.parts[0][string(key)]
	}
	return t.parts[fnv1a(key)%uint64(len(t.parts))][string(key)]
}

// lookupWord returns the ascending build rows whose key encodes to w (nil
// when there are none).
func (t *joinTable) lookupWord(w uint64) []int32 {
	if t.denseOffs != nil {
		// A word below denseMin wraps to a huge k and fails the bound check.
		k := orderedWord(w) - t.denseMin
		if k >= uint64(len(t.denseOffs)-1) {
			return nil
		}
		return t.fixedRows[t.denseOffs[k]:t.denseOffs[k+1]]
	}
	mask := uint64(len(t.slots) - 1)
	for s := (w * fibMul) >> t.slotShift; ; s = (s + 1) & mask {
		sl := &t.slots[s]
		if sl.hi == 0 {
			return nil
		}
		if sl.w == w {
			return t.fixedRows[sl.lo:sl.hi]
		}
	}
}

// fnv1a hashes key bytes to a partition; any stable byte hash works, the
// choice only affects load balance, never results.
func fnv1a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
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

// buildJoinTable hashes the materialized build rows into `workers`
// hash-partitioned sub-tables using up to `workers` goroutines. Phase 1
// splits the rows into fixed-size chunks claimed from an atomic dispenser and
// computes each row's key bytes and partition; phase 2 builds each
// partition's map by walking the rows in index order, so every match list is
// ascending no matter which worker built it.
func buildJoinTable(spec *joinSpec, rows *storage.Batch, workers int) *joinTable {
	t := &joinTable{rows: rows}
	n := rows.Len()
	if n == 0 {
		return t
	}
	if workers < 1 {
		workers = 1
	}
	if spec.fixedKey {
		buildFixedJoinTable(t, rows.Vecs[spec.rightKeys[0]])
		return t
	}
	if workers == 1 {
		m := make(map[string][]int32, 1024)
		var key []byte
		for i := 0; i < n; i++ {
			key = groupKey(key, rows.Vecs, spec.rightKeys, i)
			m[string(key)] = append(m[string(key)], int32(i))
		}
		t.parts = []map[string][]int32{m}
		return t
	}

	keys := make([]string, n)
	nParts := uint64(workers)
	nChunks := (n + DefaultMorselRows - 1) / DefaultMorselRows
	// chunkParts[c][p] lists chunk c's row indices owned by partition p
	// (int32: build sides are bounded far below 2^31 rows by memory), so
	// phase 2 is O(n) total instead of every partition rescanning all rows.
	chunkParts := make([][][]int32, nChunks)
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var key []byte
			for {
				c := int(atomic.AddInt64(&next, 1)) - 1
				if c >= nChunks {
					return
				}
				lo := c * DefaultMorselRows
				hi := lo + DefaultMorselRows
				if hi > n {
					hi = n
				}
				local := make([][]int32, nParts)
				for i := lo; i < hi; i++ {
					key = groupKey(key, rows.Vecs, spec.rightKeys, i)
					keys[i] = string(key)
					p := fnv1a(key) % nParts
					local[p] = append(local[p], int32(i))
				}
				chunkParts[c] = local
			}
		}()
	}
	wg.Wait()

	// Phase 2: partition p concatenates its index lists in chunk order, so
	// every match list is ascending regardless of which worker built it.
	t.parts = make([]map[string][]int32, workers)
	var pnext int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				p := int(atomic.AddInt64(&pnext, 1)) - 1
				if p >= workers {
					return
				}
				m := make(map[string][]int32, n/workers+1)
				for c := 0; c < nChunks; c++ {
					for _, i := range chunkParts[c][p] {
						m[keys[i]] = append(m[keys[i]], i)
					}
				}
				t.parts[p] = m
			}
		}()
	}
	wg.Wait()
	return t
}

// buildFixedJoinTable is buildJoinTable's spec.fixedKey variant: a CSR build
// keyed by the key column's fixedWord instead of groupKey bytes. fixedWord
// mirrors groupKey's per-type encoding (two's complement, Float64bits, 0/1),
// so word equality is exactly byte-key equality within the type and every
// match list comes out identical — ascending row order falls out of the
// forward fill pass. The build is three O(n) integer passes over flat arrays
// with no Go map anywhere; it is not worth parallelizing, so the workers
// argument of the byte-keyed build has no analogue here.
func buildFixedJoinTable(t *joinTable, kv *storage.Vector) {
	n := kv.Len()

	// Pass 1: the ordered key span decides the index layout.
	lo, hi := orderedWord(fixedWord(kv, 0)), orderedWord(fixedWord(kv, 0))
	for i := 1; i < n; i++ {
		w := orderedWord(fixedWord(kv, i))
		if w < lo {
			lo = w
		}
		if w > hi {
			hi = w
		}
	}
	t.fixedRows = make([]int32, n)
	if span := hi - lo; span < uint64(n)*denseSpanFactor || span < denseSpanFloor {
		buildDenseIndex(t, kv, lo, int(span)+1)
	} else {
		buildSlotIndex(t, kv)
	}
}

// buildDenseIndex lays the runs out in key order behind an offset array
// indexed by orderedWord − min.
func buildDenseIndex(t *joinTable, kv *storage.Vector, min uint64, nk int) {
	n := kv.Len()
	// Pass 2: count key k into offs[k+2], then prefix-sum, leaving offs[k+1]
	// at the start of k's run. Pass 3 fills through offs[k+1], which walks it
	// to the end of k's run — the start of k+1's — so the array finishes as
	// the exclusive offsets with no cursor copy.
	offs := make([]int32, nk+2)
	for i := 0; i < n; i++ {
		offs[orderedWord(fixedWord(kv, i))-min+2]++
	}
	for k := 2; k < len(offs); k++ {
		offs[k] += offs[k-1]
	}
	for i := 0; i < n; i++ {
		k := orderedWord(fixedWord(kv, i)) - min + 1
		t.fixedRows[offs[k]] = int32(i)
		offs[k]++
	}
	t.denseMin, t.denseOffs = min, offs[:nk+1]
}

// buildSlotIndex lays the runs out in slot order behind an open-addressing
// table of at least 2n slots (load ≤ 1/2, so a probe always meets an empty
// slot and the table never grows).
func buildSlotIndex(t *joinTable, kv *storage.Vector) {
	n := kv.Len()
	nSlots := 1 << bits.Len(uint(2*n-1))
	slots := make([]wordSlot, nSlots)
	shift := uint(64 - bits.TrailingZeros(uint(nSlots)))
	mask := uint64(nSlots - 1)

	// Pass 2: claim a slot per distinct word, counting its rows in hi.
	slotOf := make([]int32, n)
	for i := 0; i < n; i++ {
		w := fixedWord(kv, i)
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
		t.fixedRows[slots[s].hi] = int32(i)
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
				if p.spec.fixedKey {
					p.matches = p.table.lookupWord(fixedWord(p.cur.Vecs[p.spec.leftKeys[0]], row))
				} else {
					p.key = groupKey(p.key, p.cur.Vecs, p.spec.leftKeys, row)
					p.matches = p.table.lookup(p.key)
				}
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
