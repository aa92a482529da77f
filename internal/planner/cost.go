package planner

import (
	"math"

	"github.com/tasterdb/taster/internal/expr"
	"github.com/tasterdb/taster/internal/storage"
)

// estimator provides cardinality and cost estimates over the query IR. It
// mirrors what the physical engine charges (scan bytes, shuffle bytes, CPU
// tuples) so estimated and measured simulated times track each other.
type estimator struct {
	model storage.CostModel
}

// scanEst describes one joined branch: cardinality and average row width.
type scanEst struct {
	rows  float64
	width float64 // bytes per row
}

// tableEst returns the branch estimate for a filtered base table.
func (e estimator) tableEst(t TableRef, filter expr.Expr) scanEst {
	rows := float64(t.Table.NumRows()) * expr.Selectivity(filter, t.Table)
	return scanEst{rows: rows, width: t.Table.AvgRowBytes()}
}

// joinEst estimates |L ⋈ R| with the textbook formula
// |L|·|R| / max(d(Lkey), d(Rkey)), composed over multiple key pairs.
func (e estimator) joinEst(q *Query, left scanEst, leftTables []string, right TableRef, rightFiltered scanEst) scanEst {
	denom := 1.0
	for _, j := range q.Joins {
		var keyTable, keyCol, otherCol string
		switch {
		case j.RightTable == right.Name && contains(leftTables, j.LeftTable):
			keyTable, keyCol, otherCol = j.LeftTable, j.LeftCol, j.RightCol
		case j.LeftTable == right.Name && contains(leftTables, j.RightTable):
			keyTable, keyCol, otherCol = j.RightTable, j.RightCol, j.LeftCol
		default:
			continue
		}
		dLeft := 1
		if ref, ok := q.ref(keyTable); ok {
			dLeft = ref.Table.DistinctOf(keyCol)
		}
		dRight := right.Table.DistinctOf(otherCol)
		d := dLeft
		if dRight > d {
			d = dRight
		}
		if d > 1 {
			denom *= float64(d)
		}
	}
	rows := left.rows * rightFiltered.rows / denom
	if rows < 1 {
		rows = 1
	}
	return scanEst{rows: rows, width: left.width + rightFiltered.width}
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// planCost accumulates the simulated-seconds cost of a candidate.
//
// CPU work is split into two buckets: cpuTuples is spine work the
// morsel-driven executor spreads across workers (scans, samplers, hash
// probes, aggregation), serialTuples is work one goroutine does before the
// pool starts (build-side drains, inline sketch builds). seconds divides only
// the former by the planner's parallelism factor.
//
// The serial bucket also holds one term that no longer describes the
// runtime: a sketch-join candidate's whole cost (serializeCPU,
// sketchProbeWork), from when a serial operator ran those plans. Their probe
// spine and sketch lookups ride the worker pool now, so under Parallelism > 1
// the charge is conservative — sketch-joins look as expensive as they were,
// not as cheap as they became. It is left alone on purpose: changing it moves
// plan choice, and ROADMAP's cost-model item refits it against a regret
// number instead of by argument.
type planCost struct {
	baseBytes      int64
	warehouseBytes int64
	// diskLoadBytes is the I/O-load term for disk-resident synopses: a
	// reuse candidate whose payload was spilled to the persistent warehouse
	// tier pays a fault-in (seek + bytes at cold-read bandwidth) on top of
	// the warehouse scan. Already-cached payloads and buffer residents skip
	// it, so ChoosePlan discounts cold warehouse hits against warm ones.
	diskLoadBytes int64
	cpuTuples     int64
	serialTuples  int64
	// vecTuples/serialVecTuples carry filter work, on the morsel spine and
	// on serially drained branches. Every filter runs as compiled selection
	// kernels (Validate admits nothing else), so per tuple it costs only the
	// model's VectorizedFrac of the row-at-a-time rate the other CPU buckets
	// are priced at.
	vecTuples       int64
	serialVecTuples int64
	shuffleBytes    int64
}

func (c *planCost) scanTable(t TableRef) {
	c.scanBase(t.Table.Bytes(), int64(t.Table.NumRows()), false)
}

// scanBase charges a base-table scan by explicit byte and row totals — the
// zone-prune-aware costing path passes only the surviving partitions'
// share, mirroring what the executor's pruned scans actually charge.
func (c *planCost) scanBase(bytes, rows int64, serial bool) {
	c.baseBytes += bytes
	if serial {
		c.serialTuples += rows
	} else {
		c.cpuTuples += rows
	}
}

func (c *planCost) scanSynopsis(bytes int64, rows float64) {
	c.warehouseBytes += bytes
	c.cpuTuples += int64(rows)
}

// loadSynopsis charges faulting a spilled synopsis payload back into
// memory (disk-resident warehouse items only).
func (c *planCost) loadSynopsis(bytes int64) {
	c.diskLoadBytes += bytes
}

// joinWork charges one hash join: both inputs shuffle, output pays CPU. The
// build side is materialized serially; probing and emitting run on the
// morsel pool.
func (c *planCost) joinWork(build, probe, out scanEst) {
	c.shuffleBytes += int64(build.rows*build.width) + int64(probe.rows*probe.width)
	c.serialTuples += int64(build.rows)
	c.cpuTuples += int64(probe.rows + out.rows)
}

// aggWork charges the aggregation exchange plus per-tuple work.
func (c *planCost) aggWork(in scanEst) {
	c.shuffleBytes += int64(in.rows * in.width)
	c.cpuTuples += int64(in.rows)
}

// samplerWork charges the pipelined sampler (one pass over its input). A
// sampler always rides the morsel-parallel probe spine.
func (c *planCost) samplerWork(inRows float64) {
	c.cpuTuples += int64(inRows)
}

// filterWork charges evaluating a filter predicate over its input rows;
// seconds prices it at the model's vectorized fraction. serial says the filter
// sits on a serially drained branch rather than the morsel-parallel spine.
func (c *planCost) filterWork(rows float64, serial bool) {
	if serial {
		c.serialVecTuples += int64(rows)
	} else {
		c.vecTuples += int64(rows)
	}
}

// sketchProbeWork charges the per-key table lookup of every probe tuple, as
// serial work: conservative since the lookups moved onto the morsel spine
// (see planCost). The factor of four is the model's, awaiting a refit.
func (c *planCost) sketchProbeWork(probeRows float64) {
	c.serialTuples += int64(probeRows * 4)
}

// serializeCPU reclassifies all pipeline CPU accumulated so far as serial
// work. Sketch-join candidates use it for their whole physical plan — build
// scan, per-key fold, probe-side join tree and final grouping. Only the build
// scan and its fold still run serially; the rest is the conservative term
// planCost describes.
func (c *planCost) serializeCPU() {
	c.serialTuples += c.cpuTuples
	c.cpuTuples = 0
	c.serialVecTuples += c.vecTuples
	c.vecTuples = 0
}

// seconds converts accumulated work into simulated cluster time. The seek
// charge models per-query job startup and is paid once, not per source.
// parallelism (≥1) is the intra-query worker count of the morsel-driven
// executor: pipeline CPU work divides by it, serial work and I/O do not.
func (c *planCost) seconds(m storage.CostModel, parallelism float64) float64 {
	if parallelism < 1 {
		parallelism = 1
	}
	s := m.CPUSeconds(c.cpuTuples)/parallelism + m.CPUSeconds(c.serialTuples) +
		m.VectorizedFrac()*(m.CPUSeconds(c.vecTuples)/parallelism+m.CPUSeconds(c.serialVecTuples)) +
		m.ShuffleSeconds(c.shuffleBytes)
	if c.baseBytes > 0 || c.warehouseBytes > 0 {
		s += m.SeekSeconds
	}
	s += float64(c.baseBytes) / m.ScanBytesPerSec
	s += float64(c.warehouseBytes) / (m.ScanBytesPerSec * m.WarehouseReadFrac)
	s += m.DiskLoadSeconds(c.diskLoadBytes)
	if s <= 0 {
		s = 1e-6
	}
	return s
}

// sampleOutRows estimates the rows a sampler passes.
func sampleOutRows(inRows float64, uniform bool, p float64, delta, groups int) float64 {
	if uniform {
		return math.Max(1, inRows*p)
	}
	freq := float64(delta * groups)
	if freq > inRows {
		freq = inRows
	}
	return math.Max(1, freq+(inRows-freq)*p)
}

// sampleBytes estimates a materialized sample's size.
func sampleBytes(rows, width float64) int64 {
	return int64(rows * (width + 8)) // + weight column
}
