package exec

import (
	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/storage"
	"github.com/tasterdb/taster/internal/synopses"
)

// The fixture tables, for the tests that live in package exec_test beside the
// oracle (which may name nothing this package declares outside its tests).
var (
	OrdersTable    = ordersTable
	CustomersTable = customersTable
	RegionsTable   = regionsTable
	BigOrders      = bigOrders
	AmountAbove    = amountAbove
)

// GroupIDCol names the group id column a join emits when an aggregate groups
// through it.
const GroupIDCol = groupIDCol

// LeafRowsPerGroup is the average group size below which a base-table leaf
// does not fold by its numbering.
const LeafRowsPerGroup = leafRowsPerGroup

// JoinSchemas returns the output schema of every join on a compiled plan's
// spine, bottom-up: what a joined batch physically holds at each level.
func JoinSchemas(op *PipelineOp) []storage.Schema {
	var out []storage.Schema
	for _, js := range op.joins {
		out = append(out, js.spec.schema)
	}
	return out
}

// LeafSchema returns the schema a compiled plan's leaf scan reads: the leaf
// columns the spine needs and, when the sink folds by the leaf's numbering,
// the group id column after them.
func LeafSchema(op *PipelineOp) storage.Schema {
	return op.pipe.leafSchema
}

// CompileValueKeyed lowers an Aggregate onto the spine as Compile does, but
// keyed by its group columns' values whichever tables they belong to: the
// GroupIndex lowering a numbered one (groupSource) must meet bit for bit.
func CompileValueKeyed(n *plan.Aggregate, seed uint64, ctx *Context) (*PipelineOp, error) {
	reads := append(aggReads(n.Aggs), n.GroupBy...)
	return newPipelineOp(n.Child, "an aggregate", nil, reads, seed, ctx, func(in storage.Schema, _ *groupSource) (sink, error) {
		return resolveAggSpec(in, n.GroupBy, n.Aggs, nil)
	})
}

// BuildSketchPayload builds node's inline payload as a sketch sink over the
// probe schema probe does: counted at key − min when its key spans densely
// over the scanned table, at its rows' ids in the table's numbering otherwise
// — or, numbered, at the ids whatever the key. dense reports whether the
// query's build counts at key − min.
func BuildSketchPayload(node *plan.SketchJoin, probe storage.Schema, numbered bool, ctx *Context) (sk *synopses.SketchJoin, dense bool, err error) {
	s, err := newSketchSink(node, probe, nil, ctx)
	if err != nil {
		return nil, false, err
	}
	lo, n, ids := s.keySpace()
	dense = ids == nil
	if numbered && dense {
		t := buildSource(node.Build)
		cols := make([]int, len(s.buildKeys))
		for c, k := range s.buildKeys {
			cols[c] = t.Schema().Index(k.Name)
		}
		lo, ids = 0, t.GroupIDs(cols)
		n = ids.Len()
	}
	sk, err = s.buildPayload(lo, n, ids, ctx)
	return sk, dense, err
}

// DrainBuildSide reads n as a join's build side is read (buildSide.drain)
// and returns one batch holding a copy of every live row the read handed on,
// in order.
func DrainBuildSide(n plan.Node, ctx *Context) (*storage.Batch, error) {
	side, err := newBuildSide(n, "a drained build side", ctx)
	if err != nil {
		return nil, err
	}
	out := storage.NewBatch(side.table.leafSchema, 0)
	side.drain(ctx, func(b *storage.Batch) {
		live := b.Sel
		if live == nil {
			live = make([]int32, b.Len())
			for i := range live {
				live[i] = int32(i)
			}
		}
		for c, v := range b.Vecs {
			out.Vecs[c].AppendGather(v, live)
		}
	})
	return out, nil
}

// JoinBatchRows is the most rows a join stage hands on in one chunk.
const JoinBatchRows = joinBatchRows

// SpineChunkRows runs spine — the plan below a sink — on the morsel loop
// (spineChunks) and returns, per morsel in morsel order, the row count of
// every batch its top stage handed the sink: over a join, its chunks.
func SpineChunkRows(spine plan.Node, reads []string, seed uint64, ctx *Context) ([][]int, error) {
	morsels, err := spineChunks(spine, reads, seed, ctx)
	if err != nil {
		return nil, err
	}
	out := make([][]int, len(morsels))
	for m, chunks := range morsels {
		for _, c := range chunks {
			out[m] = append(out[m], c.rows())
		}
	}
	return out, nil
}

// SpineRows runs spine as SpineChunkRows does and returns every live row its
// top stage handed the sink — each one's Int64 columns, in the spine's
// column order — in morsel order and, within a morsel, in the order the sink
// was handed them.
func SpineRows(spine plan.Node, reads []string, seed uint64, ctx *Context) ([][]int64, error) {
	morsels, err := spineChunks(spine, reads, seed, ctx)
	if err != nil {
		return nil, err
	}
	var out [][]int64
	for _, chunks := range morsels {
		for _, c := range chunks {
			for r := range c.rows() {
				var row []int64
				for _, col := range c {
					if col != nil {
						row = append(row, col[r])
					}
				}
				out = append(out, row)
			}
		}
	}
	return out, nil
}
