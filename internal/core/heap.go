package core

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
)

// The collector's headroom, touched at Open.
//
// Between two collections a Go heap grows up to GOGC percent above what the
// last one found live, and a page the heap has never used is faulted in by
// the allocation that first writes it. On a serving engine that allocation
// is a query's: an inline synopsis build that lands on fresh pages pays a
// kernel fault per page, at a price the host sets, so which queries pay and
// how much moves from one run to the next. A process whose tables loaded at
// their final size (storage.Builder.Grow) reaches Open with little of that
// headroom mapped: the TPC-H benchmark's explore_cold took 34 000–47 000
// minor faults in its timed phase (1 600–5 100 with the touch), and the
// quartile spread of its p99 over ten runs of one seed rose from 0.2–0.6 ms
// to 1.1–1.6 ms. Open therefore touches, once, the room the next
// cycle may grow into that the heap does not hold yet, as the JVM's
// AlwaysPreTouch touches its heap at start. The scavenger keeps freed pages
// while a collection finds the heap in use near its goal, as serving does,
// so serving reuses them: the faults move into Open and are not added.

const (
	// touchMin is the least unmapped headroom worth touching.
	touchMin = 16 << 20
	// touchChunk is one touching allocation: a large object, so it takes
	// whole pages of its own.
	touchChunk = 1 << 20
	// touchStride is the smallest page a kernel maps; one write in each
	// faults it in.
	touchStride = 4 << 10
)

var (
	// touchMu serialises touching: engines opened together touch once, and
	// the later ones find the room held.
	touchMu sync.Mutex
	// touched is the size of the last touch and touchedCycles the count of
	// finished collections after it. Its chunks read as objects until the
	// collector has swept them, which a cycle that was marking while they
	// were live may not do: two more cycles are sure to.
	touched, touchedCycles uint64
)

// touchHeadroom faults in the heap one collection cycle may grow into
// beyond the pages the heap already holds. It does nothing with the
// collector off, under 16 MiB of missing room, or when the memory limit
// leaves less than twice the room.
func touchHeadroom() {
	touchMu.Lock()
	defer touchMu.Unlock()
	s := []metrics.Sample{
		{Name: "/gc/gogc:percent"},
		{Name: "/gc/gomemlimit:bytes"},
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
		{Name: "/memory/classes/heap/free:bytes"},
		{Name: "/memory/classes/total:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	gogc, limit := s[0].Value.Uint64(), s[1].Value.Uint64()
	objects, unused, free, total := s[2].Value.Uint64(), s[3].Value.Uint64(), s[4].Value.Uint64(), s[5].Value.Uint64()
	if gogc == 0 || gogc > math.MaxInt32 { // GOGC=off reads as uint64(-1)
		return
	}
	held := unused + free
	if s[6].Value.Uint64() < touchedCycles+2 {
		t := min(touched, objects)
		objects, held = objects-t, held+t
	}
	room := objects / 100 * gogc
	if room < held+touchMin {
		return
	}
	room -= held
	if limit <= total || limit-total < 2*room {
		return
	}
	chunks := make([][]byte, 0, room/touchChunk+1)
	for n := uint64(0); n < room; n += touchChunk {
		b := make([]byte, touchChunk)
		for i := 0; i < len(b); i += touchStride {
			b[i] = 1
		}
		chunks = append(chunks, b)
	}
	// Every chunk stays live until the last is touched, so no collection
	// hands one chunk's pages to the next.
	runtime.KeepAlive(chunks)
	metrics.Read(s[6:])
	touched, touchedCycles = room, s[6].Value.Uint64()
}
