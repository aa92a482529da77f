package workload

import (
	"fmt"
	"math/rand"

	"github.com/tasterdb/taster/internal/storage"
)

// StreamOp is one step of a streaming (online-ingestion) workload: exactly
// one of SQL or Append is set.
type StreamOp struct {
	// SQL is a query to execute (with the standard accuracy clause).
	SQL string
	// Append is a batch of rows to ingest into Append.Table.
	Append *AppendBatch
}

// AppendBatch is a pre-generated ingestion batch.
type AppendBatch struct {
	Table string
	Rows  *storage.Table
}

// StreamConfig shapes a streaming workload.
type StreamConfig struct {
	// Queries is the number of query operations in the stream.
	Queries int
	// AppendEvery inserts one append batch after every AppendEvery queries
	// (default 5).
	AppendEvery int
	// BatchRows is the row count of each append batch; when 0, BatchFrac
	// of the target table is used instead.
	BatchRows int
	// BatchFrac sizes batches as a fraction of the target table's rows at
	// generation time (default 0.02), used when BatchRows is 0.
	BatchFrac float64
	// Table is the relation receiving appends; empty selects the largest
	// table in the catalog (the fact table of the paper's workloads).
	Table string
	Seed  int64
}

// Stream generates a deterministic interleaving of queries and append
// batches — the scenario class the static Queries sequence cannot express.
// Batch rows are synthesized by resampling rows of the target table's
// current contents (value distributions are preserved, so pre- and
// post-append answers drift by realistic amounts rather than jumping).
// All batches are pre-generated from the snapshot taken now; the schema is
// append-stable so the batches remain valid as the engine ingests them.
func (w *Workload) Stream(cfg StreamConfig) ([]StreamOp, error) {
	if cfg.Queries <= 0 {
		cfg.Queries = 50
	}
	if cfg.AppendEvery <= 0 {
		cfg.AppendEvery = 5
	}
	table := cfg.Table
	if table == "" {
		for _, n := range w.Catalog.Names() {
			t, err := w.Catalog.Table(n)
			if err != nil {
				continue
			}
			if table == "" {
				table = n
				continue
			}
			cur, _ := w.Catalog.Table(table)
			if t.NumRows() > cur.NumRows() || (t.NumRows() == cur.NumRows() && n < table) {
				table = n
			}
		}
	}
	src, err := w.Catalog.Table(table)
	if err != nil {
		return nil, fmt.Errorf("workload: stream: %w", err)
	}
	if src.NumRows() == 0 {
		return nil, fmt.Errorf("workload: stream: table %q is empty", table)
	}
	batchRows := cfg.BatchRows
	if batchRows <= 0 {
		frac := cfg.BatchFrac
		if frac <= 0 {
			frac = 0.02
		}
		batchRows = max(1, int(float64(src.NumRows())*frac))
	}

	r := rand.New(rand.NewSource(cfg.Seed))
	var ops []StreamOp
	for q := 0; q < cfg.Queries; q++ {
		t := w.Templates[r.Intn(len(w.Templates))]
		ops = append(ops, StreamOp{SQL: t.Instantiate(r) + " ERROR WITHIN 10% AT CONFIDENCE 95%"})
		// No trailing append after the final query: nothing would observe it.
		if (q+1)%cfg.AppendEvery == 0 && q+1 < cfg.Queries {
			ops = append(ops, StreamOp{Append: &AppendBatch{
				Table: table,
				Rows:  ResampleBatch(src, batchRows, r),
			}})
		}
	}
	return ops, nil
}

// ResampleBatch builds a batch of n rows drawn uniformly (with replacement)
// from the table's current rows — a schema-agnostic row synthesizer for
// append streams over any workload.
func ResampleBatch(src *storage.Table, n int, r *rand.Rand) *storage.Table {
	b := storage.NewBuilder(src.Name, src.Schema())
	b.Grow(n)
	for i := 0; i < n; i++ {
		row := r.Intn(src.NumRows())
		for c := 0; c < len(src.Schema()); c++ {
			b.CopyFrom(c, src.Column(c), row)
		}
	}
	return b.Build(1)
}
