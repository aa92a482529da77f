package core

import (
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"testing"
)

// heapHeld reads the live-and-garbage objects and the heap pages mapped
// beside them, free or unused.
func heapHeld() (objects, held uint64) {
	s := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
		{Name: "/memory/classes/heap/free:bytes"},
	}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64() + s[2].Value.Uint64()
}

// allocated reports the bytes f allocated.
func allocated(f func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// TestTouchHeadroom: over a live set the heap has never grown past,
// touchHeadroom leaves one cycle's room mapped behind it, and a later
// call, before or after the chunks are collected, touches nothing.
func TestTouchHeadroom(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates a 96 MiB live set")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(100))
	live := make([]byte, 96<<20)
	for i := range len(live) / touchStride {
		live[i*touchStride] = 1
	}
	// Two collections close the window in which an earlier engine's touch
	// still counts as objects (touchedCycles).
	runtime.GC()
	runtime.GC()
	objects, before := heapHeld()
	if before+touchMin > objects {
		t.Skipf("heap already holds %d MiB beside %d MiB of objects", before>>20, objects>>20)
	}

	touchHeadroom()
	// Opened again before any collection: the chunks still read as
	// objects, and the room they hold is not touched twice.
	if grown := allocated(touchHeadroom); grown >= touchChunk {
		t.Fatalf("a touch right after a touch allocated %d bytes", grown)
	}
	// One collection frees the chunks. It began with them in use, so the
	// scavenger's goal keeps their pages; a second in a row would hand them
	// back to the host, as it does with any heap an idle process stopped
	// using.
	runtime.GC()
	objects, after := heapHeld()
	// The heap holds the chunks' pages free, short of a cycle's room by
	// less than a touch is worth.
	if want := objects - touchMin; after < want {
		t.Fatalf("after touching: %d MiB held beside %d MiB of objects, want >= %d MiB", after>>20, objects>>20, want>>20)
	}
	if grown := allocated(touchHeadroom); grown >= touchChunk {
		t.Fatalf("a touch over held room allocated %d bytes", grown)
	}
	runtime.KeepAlive(live)
}
