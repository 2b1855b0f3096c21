package bench

import (
	"bytes"
	"strings"
	"testing"
)

func rec(name string, allocs int64, ns float64) Record {
	return Record{Name: name, Iters: 1, NsPerOp: ns, AllocsPerOp: allocs}
}

// TestCompareGatesOnAllocs: the regression gate fires on allocs/op
// beyond tolerance+slack, treats ns/op drift as informational only,
// and fails hard on benchmarks missing from the current run.
func TestCompareGatesOnAllocs(t *testing.T) {
	base := File{Schema: Schema, Suite: []Record{
		rec("steady", 1000, 100),
		rec("regressed", 1000, 100),
		rec("slower", 1000, 100),
		rec("gone", 10, 10),
		rec("tiny", 0, 10), // slack absorbs small absolute growth
	}}
	cur := File{Schema: Schema, Suite: []Record{
		rec("steady", 1100, 100),    // +10% < 25% tolerance
		rec("regressed", 2000, 100), // +100% allocs: hard failure
		rec("slower", 1000, 1000),   // 10x slower, same allocs: note only
		rec("tiny", 50, 10),         // below the absolute slack
		rec("fresh", 5, 5),          // no baseline: note only
	}}
	failures, notes := Compare(base, cur, 0.25)
	if len(failures) != 2 {
		t.Fatalf("got %d failures %v, want 2", len(failures), failures)
	}
	if !strings.Contains(failures[0], "regressed") || !strings.Contains(failures[1], "gone") {
		t.Errorf("unexpected failures: %v", failures)
	}
	var slower, fresh bool
	for _, n := range notes {
		slower = slower || strings.Contains(n, "slower")
		fresh = fresh || strings.Contains(n, "fresh")
		if strings.Contains(n, "steady") || strings.Contains(n, "tiny") {
			t.Errorf("in-tolerance benchmark flagged: %q", n)
		}
	}
	if !slower || !fresh {
		t.Errorf("expected notes for slower and fresh, got %v", notes)
	}
}

// mrec builds a record carrying custom metrics.
func mrec(name string, allocs int64, metrics map[string]float64) Record {
	r := rec(name, allocs, 100)
	r.Metrics = metrics
	return r
}

// TestCompareGatesPerOpMetrics: custom metrics named "*/op" (per-op
// event counts, machine-independent) are gated like allocs/op; other
// custom metrics (simulated-machine ratios) are never gated.
func TestCompareGatesPerOpMetrics(t *testing.T) {
	base := File{Schema: Schema, Suite: []Record{
		mrec("steady", 10, map[string]float64{"sched-handoffs/op": 0.01}),
		mrec("regressed", 10, map[string]float64{"sched-handoffs/op": 0.5}),
		mrec("dropped", 10, map[string]float64{"sched-handoffs/op": 1}),
		mrec("ratio", 10, map[string]float64{"skiplist-slowdown-x": 2}),
	}}
	cur := File{Schema: Schema, Suite: []Record{
		// 0.01 -> 0.04: huge relative growth, but inside the absolute
		// slack that keeps near-zero metrics from failing on noise.
		mrec("steady", 10, map[string]float64{"sched-handoffs/op": 0.04}),
		// 0.5 -> 2.0: the fast path was lost; hard failure.
		mrec("regressed", 10, map[string]float64{"sched-handoffs/op": 2.0}),
		// Baseline had the metric, current run doesn't: hard failure.
		mrec("dropped", 10, nil),
		// Non-/op metric may move freely.
		mrec("ratio", 10, map[string]float64{"skiplist-slowdown-x": 9}),
	}}
	failures, _ := Compare(base, cur, 0.25)
	if len(failures) != 2 {
		t.Fatalf("got %d failures %v, want 2", len(failures), failures)
	}
	if !strings.Contains(failures[0], "regressed") || !strings.Contains(failures[0], "sched-handoffs/op") {
		t.Errorf("regressed metric not flagged: %v", failures)
	}
	if !strings.Contains(failures[1], "dropped") || !strings.Contains(failures[1], "missing") {
		t.Errorf("dropped metric not flagged: %v", failures)
	}
}

// TestFileRoundTrip: Write then Read reproduces the document, and the
// bytes are deterministic (map keys sorted by encoding/json).
func TestFileRoundTrip(t *testing.T) {
	f := File{Schema: Schema, Go: "go0.0", Suite: []Record{{
		Name: "X", Iters: 3, NsPerOp: 1.5, AllocsPerOp: 7, BytesPerOp: 9,
		Metrics: map[string]float64{"b-metric": 2, "a-metric": 1},
	}}}
	var w1, w2 bytes.Buffer
	if err := f.Write(&w1); err != nil {
		t.Fatal(err)
	}
	if err := f.Write(&w2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
		t.Error("two renders differ")
	}
	got, err := Read(&w1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Suite[0].Name != "X" || got.Suite[0].Metrics["a-metric"] != 1 {
		t.Errorf("round trip lost data: %+v", got)
	}
}

// TestReadRejectsWrongSchema: an unrelated JSON document is an error,
// not an empty baseline that would vacuously pass every gate.
func TestReadRejectsWrongSchema(t *testing.T) {
	if _, err := Read(strings.NewReader(`{"schema":"other/9"}`)); err == nil {
		t.Error("wrong schema accepted")
	}
	if _, err := Read(strings.NewReader(`not json`)); err == nil {
		t.Error("garbage accepted")
	}
}

// TestSummarizeRepeatedRuns: repeated suite runs fold into one record
// per spec carrying the median ns/op and its range, the worst run's
// allocation counts and the total iterations; a spec a failed run never
// reached is summarized over the runs that have it, and a single run
// comes back unchanged.
func TestSummarizeRepeatedRuns(t *testing.T) {
	run := func(a, b float64, allocs int64) File {
		return File{Schema: Schema, Go: "gotest", Suite: []Record{rec("A", allocs, a), rec("B", 0, b)}}
	}
	partial := File{Schema: Schema, Go: "gotest", Suite: []Record{rec("A", 1, 40)}}
	got := Summarize([]File{run(30, 5, 1), run(10, 7, 3), run(20, 6, 2), partial})
	if len(got.Suite) != 2 || got.Suite[0].Name != "A" || got.Suite[1].Name != "B" {
		t.Fatalf("suite %+v, want A then B", got.Suite)
	}
	a, b := got.Suite[0], got.Suite[1]
	if a.NsPerOp != 25 || a.NsPerOpMin != 10 || a.NsPerOpMax != 40 || a.Runs != 4 || a.Iters != 4 || a.AllocsPerOp != 3 {
		t.Errorf("A = %+v, want median 25 of 10..40 over 4 runs, 4 iters, 3 allocs", a)
	}
	if b.NsPerOp != 6 || b.NsPerOpMin != 5 || b.NsPerOpMax != 7 || b.Runs != 3 {
		t.Errorf("B = %+v, want median 6 of 5..7 over 3 runs", b)
	}
	one := run(1, 2, 3)
	if s := Summarize([]File{one}); s.Suite[0].Runs != 0 || s.Suite[0].NsPerOpMin != 0 {
		t.Errorf("single run gained summary fields: %+v", s.Suite[0])
	}
}
