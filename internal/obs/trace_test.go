package obs

import (
	"strings"
	"testing"
	"time"
)

// TestTraceRender pins the EXPLAIN-ANALYZE layout: branch glyphs, stat
// lines, fused stubs. The rendering is part of the user-facing surface
// (tastercli -explain), so changes here should be deliberate.
func TestTraceRender(t *testing.T) {
	root := &TraceNode{
		Name: "Aggregate[region | SUM(amount)]", RowsOut: 5, RowsIn: 431, Batches: 1,
		Children: []*TraceNode{
			{
				Name: "Filter(amount < 100)", RowsOut: 431, PhysRows: 1000, Batches: 2,
				Duration: 800 * time.Microsecond,
				Children: []*TraceNode{
					{Name: "Scan(sales)", Fused: true},
				},
			},
		},
	}
	got := root.Render()
	want := strings.Join([]string{
		"Aggregate[region | SUM(amount)]  rows=5 in=431 batches=1 time=0s",
		"└─ Filter(amount < 100)  rows=431/1000 sel=43.1% batches=2 time=800µs",
		"   └─ Scan(sales)  (fused)",
		"",
	}, "\n")
	if got != want {
		t.Fatalf("Render mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestTraceRenderSiblings(t *testing.T) {
	root := &TraceNode{
		Name: "Join", RowsOut: 10, Batches: 1,
		Children: []*TraceNode{
			{Name: "ScanA", RowsOut: 4, Batches: 1, Materialized: 2,
				Children: []*TraceNode{{Name: "Leaf", Fused: true}}},
			{Name: "ScanB", RowsOut: 6, Batches: 1},
			// A join build side the join cache answered: the root shows the
			// cached table's rows, the nodes below it ran nothing.
			{Name: "FilterC", Cached: true, RowsOut: 7,
				Children: []*TraceNode{{Name: "ScanC", Cached: true}}},
		},
	}
	got := root.Render()
	for _, line := range []string{
		"├─ ScanA  rows=4 batches=1 built=2 time=0s",
		"│  └─ Leaf  (fused)", // continuation bar under a non-last sibling
		"├─ ScanB  rows=6 batches=1 time=0s",
		"└─ FilterC  (cached rows=7)",
		"   └─ ScanC  (cached)",
	} {
		if !strings.Contains(got, line) {
			t.Errorf("Render output missing %q:\n%s", line, got)
		}
	}
}

func TestTraceRenderNil(t *testing.T) {
	var n *TraceNode
	if got := n.Render(); got != "" {
		t.Fatalf("nil Render = %q, want empty", got)
	}
}
