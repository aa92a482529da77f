package exec

import (
	"github.com/tasterdb/taster/internal/expr"
	"github.com/tasterdb/taster/internal/storage"
)

// TableScan reads a base table partition by partition, charging cold-scan
// bytes to the run stats. When Prune is set (the predicate of the Filter
// directly above the scan), partitions whose zone maps prove the predicate
// unsatisfiable are skipped and their bytes never charged — the result
// stream above the filter is unchanged, only the cost shrinks.
type TableScan struct {
	Table *storage.Table
	Prune expr.Expr
	ctx   *Context

	batches []*storage.Batch
	pos     int
}

// NewTableScan returns a scan over the whole table.
func NewTableScan(t *storage.Table, ctx *Context) *TableScan {
	return &TableScan{Table: t, ctx: ctx}
}

// pruneKeep evaluates pred against every partition's zone map and returns
// the survivor mask plus the surviving byte total. A nil mask means nothing
// was pruned (scan everything); bytes then equals t.Bytes() exactly, so an
// ineffective prune charges the same as no prune at all.
func pruneKeep(t *storage.Table, pred expr.Expr) ([]bool, int64) {
	if pred == nil {
		return nil, t.Bytes()
	}
	sch := t.Schema()
	keep := make([]bool, t.Partitions())
	var bytes int64
	pruned := false
	for p := range keep {
		if expr.ZonePrunes(pred, sch, t.Zone(p)) {
			pruned = true
			continue
		}
		keep[p] = true
		bytes += t.PartitionBytes(p)
	}
	if !pruned {
		return nil, bytes
	}
	return keep, bytes
}

// Open implements Operator.
func (s *TableScan) Open() error {
	s.batches = s.batches[:0]
	keep, bytes := pruneKeep(s.Table, s.Prune)
	for p := 0; p < s.Table.Partitions(); p++ {
		if keep != nil && !keep[p] {
			continue
		}
		s.batches = append(s.batches, s.Table.Scan(p, storage.BatchSize)...)
	}
	s.pos = 0
	s.ctx.Stats.BaseBytes += bytes
	s.ctx.Obs.Pruned(prunedCount(keep))
	return nil
}

// prunedCount counts the partitions a survivor mask skipped (0 for the nil
// nothing-pruned mask).
func prunedCount(keep []bool) int64 {
	var n int64
	for _, k := range keep {
		if !k {
			n++
		}
	}
	return n
}

// Next implements Operator.
func (s *TableScan) Next() (*storage.Batch, error) {
	if s.pos >= len(s.batches) {
		return nil, nil
	}
	b := s.batches[s.pos]
	s.pos++
	s.ctx.Stats.CPUTuples += int64(b.Len())
	return b, nil
}

// Close implements Operator.
func (s *TableScan) Close() error { return nil }

// Schema implements Operator.
func (s *TableScan) Schema() storage.Schema { return s.Table.Schema() }
