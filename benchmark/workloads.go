package main

import (
	"fmt"
	"math/rand"

	"github.com/tasterdb/taster"
	"github.com/tasterdb/taster/internal/storage"
	"github.com/tasterdb/taster/internal/workload"
)

const (
	accuracyClause = " ERROR WITHIN 10% AT CONFIDENCE 95%"
	exactSuffix    = " EXACT"
	// errorBound is the relative error the accuracy clause requests.
	errorBound = 0.10
	// refSeconds is the run length the operation counts below are sized for
	// on the 2-core reference host; --seconds scales them linearly, so a run
	// is always a fixed number of operations, never a fixed duration.
	refSeconds = 15
	// textSeed generates the query texts. It is not the run's seed: see
	// instances.
	textSeed = 2019
)

// op is one operation a client sends: a query, or an append into lineitem.
type op struct {
	sql   string
	batch *taster.TableBuilder
	// check marks a query whose answer the truth engine also computes.
	check bool
}

// inputs is everything a workload sends, generated before the engine under
// test sees any of it.
type inputs struct {
	warm  []op // serial, Drain after each, untimed
	timed []op // the measured phase
	post  []op // serial, Drain after each, after the measured phase, all checked
}

// scale is the data and operation scale of a run.
type scale struct {
	sf      float64
	seconds int
	smoke   bool
}

// n scales an operation count sized for refSeconds to the run's length; the
// smoke scale (unit tests) divides it by 10.
func (s scale) n(ref int) int {
	n := ref * s.seconds / refSeconds
	if s.smoke {
		n /= 10
	}
	return max(n, 1)
}

// spec describes one workload.
type spec struct {
	name    string
	clients int
	// drainEach drains the tuner after every timed operation, off the busy
	// clock, which makes an asynchronous engine's state deterministic.
	drainEach bool
	// truthWorkers is the truth engine's parallelism: 2 for speed, except 1
	// on scan_exact, whose live engine runs 2 workers, so that the
	// byte-equality check also crosses the morsel executor's worker count.
	truthWorkers int
	opts         func(seed uint64, catBytes int64) taster.Options
	build        func(w *workload.Workload, seed int64, sc scale) (inputs, error)
}

// instances draws n query instances: templates in a shuffled order, each used
// equally often, predicate constants chosen at random as in the paper's
// §VI-A method, all from a generator seeded with textSeed+stream.
//
// The run's seed generates the tables, the append batches and the engine's
// sampling, not the texts. Which predicate constants arrive in which order
// decides what the tuner can reuse (a sample serves a later query only if
// the later predicate implies its own), so texts drawn per seed made two
// seeds two different workloads: throughput spread 11 % to 32 % between
// seeds before host noise, against 0.2 % for a fixed list. Picking the
// template uniformly, as Workload.Queries does, spread it further, because
// the 18 templates' costs differ 50-fold.
func instances(w *workload.Workload, n int, stream int64) []string {
	r := rand.New(rand.NewSource(textSeed + stream))
	out := make([]string, n)
	var perm []int
	for i := range out {
		if i%len(w.Templates) == 0 {
			perm = r.Perm(len(w.Templates))
		}
		out[i] = w.Templates[perm[i%len(w.Templates)]].Instantiate(r) + accuracyClause
	}
	return out
}

func queries(texts []string) []op {
	ops := make([]op, len(texts))
	for i, s := range texts {
		ops[i] = op{sql: s}
	}
	return ops
}

func repeat(ops []op, passes int) []op {
	out := make([]op, 0, len(ops)*passes)
	for p := 0; p < passes; p++ {
		out = append(out, ops...)
	}
	return out
}

// checkLast marks the last n operations as checked.
func checkLast(ops []op, n int) {
	for i := len(ops) - n; i < len(ops); i++ {
		ops[i].check = true
	}
}

const (
	dashShapes = 36 // two instances of each template
	scanShapes = 72
)

var specs = []spec{
	{
		name:         "dash_repeat",
		clients:      2,
		truthWorkers: 2,
		opts: func(seed uint64, catBytes int64) taster.Options {
			// A fixed window of twice the shape count keeps every shape
			// benefit-visible, and a budget of four times the data keeps the
			// warehouse out of storage pressure; with both, the keep set and
			// the snapshot ident go quiescent and the plan cache is used
			// (the reasons experiments.Serving gives for the same settings).
			return taster.Options{SimulatedScale: true, Seed: seed, Workers: 1,
				Window: 2 * dashShapes, FixedWindow: true, StorageBudget: 4 * catBytes}
		},
		build: func(w *workload.Workload, _ int64, sc scale) (inputs, error) {
			list := queries(instances(w, dashShapes, 0))
			timed := repeat(list, sc.n(76))
			checkLast(timed, len(list))
			return inputs{warm: repeat(list, 8), timed: timed}, nil
		},
	},
	{
		name:         "explore_cold",
		clients:      1,
		truthWorkers: 2,
		opts: func(seed uint64, _ int64) taster.Options {
			return taster.Options{SimulatedScale: true, Seed: seed, Workers: 1, SynchronousTuning: true}
		},
		build: func(w *workload.Workload, _ int64, sc scale) (inputs, error) {
			timed := queries(instances(w, sc.n(1080), 0))
			for i := 9; i < len(timed); i += 10 {
				timed[i].check = true
			}
			return inputs{warm: queries(instances(w, sc.n(180), 1)), timed: timed}, nil
		},
	},
	{
		name:         "scan_exact",
		clients:      1,
		truthWorkers: 1,
		opts: func(seed uint64, _ int64) taster.Options {
			return taster.Options{SimulatedScale: true, Seed: seed, Workers: 2}
		},
		build: func(w *workload.Workload, _ int64, sc scale) (inputs, error) {
			texts := instances(w, scanShapes, 0)
			exact := make([]op, len(texts))
			for i, s := range texts {
				exact[i] = op{sql: s + exactSuffix}
			}
			timed := repeat(exact, sc.n(7))
			checkLast(timed, len(exact))
			// The same texts once more without EXACT, after the measured
			// phase: what approximation would have answered and saved, so
			// that the two accuracy metrics are defined on this workload too.
			post := queries(texts)
			checkLast(post, len(post))
			return inputs{warm: exact, timed: timed, post: post}, nil
		},
	},
}

// ungated are workloads the program runs by name but BENCHMARK.json does not
// declare, so that no change is accepted or refused on their numbers.
//
// ingest_mix is here because half its time is (*Table).Stats, recomputed for
// every new epoch by the first query after an append: a loop of updates to a
// small map, and a loop of that shape slows by 1.3 when the host makes the
// map part of the calibration (and an ordinary query) slow by 2. Its
// query_p95_ms, which is that first query, spread by 19 to 23 % between runs
// of one binary when normalised by the map part and by 13 to 18 % as
// measured: too close to any bound the file may state.
var ungated = []spec{
	{
		name:         "ingest_mix",
		clients:      1,
		drainEach:    true,
		truthWorkers: 2,
		opts: func(seed uint64, _ int64) taster.Options {
			return taster.Options{SimulatedScale: true, Seed: seed, Workers: 1, MaxStaleness: 0.1, PartitionRows: 65536}
		},
		build: func(w *workload.Workload, seed int64, sc scale) (inputs, error) {
			// Sixteen queries per append put 200 queries, the fewest with ten
			// samples beyond p95, into the run. Every sixth block of sixteen
			// is checked whole: the truth engine pays the statistics of a
			// new epoch (0.75 s) once per checked block, not per query.
			const appendEvery, batchRows, checkEvery = 16, 3000, 6
			src, err := w.Catalog.Table("lineitem")
			if err != nil {
				return inputs{}, fmt.Errorf("ingest_mix: %w", err)
			}
			r := rand.New(rand.NewSource(seed))
			var timed []op
			texts := instances(w, sc.n(200), 0)
			for i, s := range texts {
				timed = append(timed, op{sql: s, check: (i/appendEvery)%checkEvery == 0})
				// No append after the last query: nothing would observe it.
				if i%appendEvery == appendEvery-1 && i+1 < len(texts) {
					timed = append(timed, op{batch: resample(src, batchRows, r)})
				}
			}
			return inputs{warm: queries(instances(w, sc.n(180), 1)), timed: timed}, nil
		},
	},
}

// resample builds an append batch of n rows drawn with replacement from the
// table's rows (workload.ResampleBatch, kept as the builder Engine.Ingest
// takes).
func resample(src *storage.Table, n int, r *rand.Rand) *taster.TableBuilder {
	b := taster.NewTableBuilder(src.Name, src.Schema())
	for i := 0; i < n; i++ {
		row := r.Intn(src.NumRows())
		for c := range src.Schema() {
			b.CopyFrom(c, src.Column(c), row)
		}
	}
	return b
}

// findSpec finds a workload, declared or ungated, by name.
func findSpec(name string) (spec, bool) {
	for _, s := range append(append([]spec(nil), specs...), ungated...) {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}
