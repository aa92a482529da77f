package exec

import (
	"fmt"
	"sort"

	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/stats"
	"github.com/tasterdb/taster/internal/storage"
)

// sortSpec is a Sort above a sink: the order a run's one batch is put in
// before it is returned, and how many of its rows are kept.
type sortSpec struct {
	byIdx []int  // the sort columns' positions in the sink's output
	desc  []bool // by sort column; missing: ascending
	limit int    // 0: keep every row
	trace *tracer
}

// newSortSpec resolves the sort columns against the sink's output schema.
func newSortSpec(n *plan.Sort, out storage.Schema, ctx *Context) (*sortSpec, error) {
	s := &sortSpec{desc: n.Desc, limit: n.Limit}
	for _, c := range n.By {
		i := out.Index(c)
		if i < 0 {
			return nil, fmt.Errorf("exec: sort: column %q not in %v", c, out.Names())
		}
		s.byIdx = append(s.byIdx, i)
	}
	s.trace = newTracer(n, ctx)
	return s, nil
}

// apply orders the sink's batch b — stably, so rows that tie keep the
// sink's key order — cuts it to the limit, and permutes the row-aligned
// intervals alongside. Every row sorted is one CPU tuple.
func (s *sortSpec) apply(b *storage.Batch, intervals [][]stats.Interval, ctx *Context) (*storage.Batch, [][]stats.Interval) {
	n := b.Len()
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.SliceStable(idx, func(x, y int) bool {
		for k, c := range s.byIdx {
			vx, vy := b.Vecs[c].Get(int(idx[x])), b.Vecs[c].Get(int(idx[y]))
			if vx.Equal(vy) {
				continue
			}
			less := vx.Less(vy)
			if k < len(s.desc) && s.desc[k] {
				return !less
			}
			return less
		}
		return false
	})
	if s.limit > 0 && s.limit < len(idx) {
		idx = idx[:s.limit]
	}
	ivs := make([][]stats.Interval, len(idx))
	for i, j := range idx {
		ivs[i] = intervals[j]
	}
	ctx.Stats.CPUTuples += int64(n)
	out := storage.NewBatch(b.Schema, len(idx))
	for c, v := range b.Vecs {
		out.Vecs[c].AppendGather(v, idx)
	}
	return out, ivs
}
