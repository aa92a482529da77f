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
func JoinSchemas(op Operator) []storage.Schema {
	if s, ok := op.(*SortOp); ok {
		op = s.Child
	}
	var out []storage.Schema
	for _, js := range op.(*PipelineOp).joins {
		out = append(out, js.spec.schema)
	}
	return out
}

// LeafSchema returns the schema a compiled plan's leaf scan reads: the leaf
// columns the spine needs and, when the sink folds by the leaf's numbering,
// the group id column after them.
func LeafSchema(op Operator) storage.Schema {
	if s, ok := op.(*SortOp); ok {
		op = s.Child
	}
	return op.(*PipelineOp).pipe.leafSchema
}

// CompileValueKeyed lowers an Aggregate onto the spine as Compile does, but
// keyed by its group columns' values whichever tables they belong to: the
// GroupIndex lowering a numbered one (groupSource) must meet bit for bit.
func CompileValueKeyed(n *plan.Aggregate, seed uint64, ctx *Context) (Operator, error) {
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
	if cerr := s.build.Close(); err == nil {
		err = cerr
	}
	return sk, dense, err
}
