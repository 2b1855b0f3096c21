package main

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct {
		p    float64
		want float64
	}{{0.5, 50}, {0.99, 99}, {0.999, 100}, {1, 100}, {0.001, 1}} {
		if got := quantile(xs, c.p); got != c.want {
			t.Errorf("quantile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// TestSupportsTenBeyond pins the rule that a reported percentile has
// at least minBeyond samples above it.
func TestSupportsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{10000, 0.999, true}, {9999, 0.999, false},
		{1000, 0.99, true}, {999, 0.99, false},
		{45, 0.99, false}, {20, 0.5, true}, {19, 0.5, false},
	} {
		if got := supports(c.n, c.p); got != c.want {
			t.Errorf("supports(%d, %v) = %v (beyond %d), want %v", c.n, c.p, got, beyond(c.n, c.p), c.want)
		}
	}
}

func TestValueRoundTrip(t *testing.T) {
	for _, size := range []int{64, 256, 1024} {
		v := makeValue(1, 123456, 299999, size)
		if len(v) != size {
			t.Fatalf("size %d: got %d bytes", size, len(v))
		}
		c, s, k, ok := parseValue(v)
		if !ok || c != 1 || s != 123456 || k != 299999 {
			t.Errorf("parseValue = %d %d %d %v", c, s, k, ok)
		}
	}
}

// TestCheckFinalCatchesCorruption is the checker's negative case: a
// value that differs from every acknowledged write in one byte, a
// stale write, a misrouted write and a lost key all fail.
func TestCheckFinalCatchesCorruption(t *testing.T) {
	acked := []ackLog{{7: 5}, {7: 9, 8: 2}}
	good := makeValue(1, 9, 7, 256)
	if err := checkFinal(7, good, true, acked, 64); err != nil {
		t.Fatalf("last write of conn 1 rejected: %v", err)
	}
	if err := checkFinal(7, makeValue(0, 5, 7, 64), true, acked, 64); err != nil {
		t.Fatalf("last write of conn 0 rejected: %v", err)
	}
	if err := checkFinal(9, prepopValue(9, 64), true, acked, 64); err != nil {
		t.Fatalf("unwritten prepopulated key rejected: %v", err)
	}
	corrupt := append([]byte(nil), good...)
	corrupt[200] ^= 1
	bad := map[string]struct {
		key   uint64
		v     []byte
		found bool
	}{
		"corrupted byte":     {7, corrupt, true},
		"stale write":        {7, makeValue(1, 8, 7, 256), true},
		"other key's value":  {8, makeValue(1, 9, 7, 256), true},
		"missing key":        {8, nil, false},
		"prepop after write": {7, prepopValue(7, 64), true},
		"unwritten changed":  {9, prepopValue(10, 64), true},
	}
	for name, c := range bad {
		if err := checkFinal(c.key, c.v, c.found, acked, 64); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCheckReadRejectsUnissued(t *testing.T) {
	issued := func(c int) uint64 { return []uint64{10, 3}[c] }
	none := ackLog{}
	if err := checkRead(4, makeValue(0, 9, 4, 256), true, 1, none, issued, 64); err != nil {
		t.Errorf("issued write rejected: %v", err)
	}
	if err := checkRead(4, makeValue(1, 3, 4, 256), true, 1, none, issued, 64); err == nil {
		t.Error("value with a sequence number never issued accepted")
	}
	if err := checkRead(4, prepopValue(4, 64), true, 1, none, issued, 64); err != nil {
		t.Errorf("prepopulated value rejected: %v", err)
	}

	// Read-your-writes: connection 0 has had its seq 7 of key 4 acked.
	own := ackLog{4: 7}
	if err := checkRead(4, makeValue(0, 5, 4, 256), true, 0, own, issued, 64); err == nil {
		t.Error("connection's own write older than its acknowledged one accepted")
	}
	if err := checkRead(4, prepopValue(4, 64), true, 0, own, issued, 64); err == nil {
		t.Error("prepopulated value accepted after the reader's write was acknowledged")
	}
	for _, v := range [][]byte{makeValue(0, 7, 4, 256), makeValue(0, 9, 4, 256), makeValue(1, 1, 4, 256)} {
		if err := checkRead(4, v, true, 0, own, issued, 64); err != nil {
			t.Errorf("acknowledged, newer or other connection's write rejected: %v", err)
		}
	}
}

func readSpec(t *testing.T) *Spec {
	t.Helper()
	s, err := loadSpec("../" + specPath)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSpecNames validates BENCHMARK.json and checks that the program
// knows every workload it declares.
func TestSpecNames(t *testing.T) {
	s := readSpec(t)
	for _, w := range s.Workloads {
		if _, ok := runners[w.Name]; !ok {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
	for name := range runners {
		if !s.workload(name) {
			t.Errorf("runner %s is not declared", name)
		}
	}
	declared := map[string]bool{}
	for _, m := range s.PerLayer {
		declared[m.Name] = true
	}
	for _, m := range cpuModules {
		if !declared["cpu."+m] {
			t.Errorf("cpu.%s is not declared", m)
		}
	}
	for _, m := range append(append([]string(nil), hookMetrics...), serverMetrics...) {
		if !declared[m] {
			t.Errorf("%s is not declared", m)
		}
	}
}

func TestSpecRejects(t *testing.T) {
	base := readSpec(t)
	clone := func() *Spec {
		b, _ := json.Marshal(base)
		var s Spec
		if err := json.Unmarshal(b, &s); err != nil {
			t.Fatal(err)
		}
		return &s
	}
	metric := func(name string) Metric { return Metric{Name: name, Unit: "count", Better: "lower"} }
	cases := map[string]func(s *Spec){
		"bad character":   func(s *Spec) { s.PerLayer[0].Name = "cpu cache" },
		"leading dot":     func(s *Spec) { s.PerLayer[0].Name = ".cpu" },
		"too long":        func(s *Spec) { s.PerLayer[0].Name = strings.Repeat("a", 65) },
		"duplicate":       func(s *Spec) { s.PerLayer[1].Name = s.PerLayer[0].Name },
		"bound too large": func(s *Spec) { b := 0.3; s.EndToEnd[0].Bound = &b },
		"per-layer bound": func(s *Spec) { b := 0.1; s.PerLayer[0].Bound = &b },
		"no setup_s": func(s *Spec) {
			for i := range s.EndToEnd {
				if s.EndToEnd[i].Name == "setup_s" {
					s.EndToEnd[i].Name = "set_up"
				}
			}
		},
		"17 end-to-end": func(s *Spec) {
			for i := len(s.EndToEnd); i <= maxEndToEnd; i++ {
				b := 0.1
				m := metric(fmt.Sprintf("e%d", i))
				m.Bound = &b
				s.EndToEnd = append(s.EndToEnd, m)
			}
		},
		"129 per-layer": func(s *Spec) {
			for i := len(s.PerLayer); i <= maxPerLayer; i++ {
				s.PerLayer = append(s.PerLayer, metric(fmt.Sprintf("l%d", i)))
			}
		},
		"bad unit": func(s *Spec) { s.PerLayer[0].Unit = "µs" },
	}
	for name, mutate := range cases {
		s := clone()
		mutate(s)
		if err := s.validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := clone().validate(); err != nil {
		t.Errorf("unmodified spec rejected: %v", err)
	}
}

func TestModuleOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"uhtm/internal/cache.(*Cache).Insert", "uhtm/internal/core.(*Machine).commit"}, "cache"},
		{[]string{"runtime.memmove", "uhtm/internal/wal.(*Log).Append"}, "wal"},
		{[]string{"runtime.mallocgc", "runtime.gcAssistAlloc", "uhtm/internal/core.x"}, "gc"},
		{[]string{"internal/runtime/syscall.Syscall6", "syscall.Read", "uhtm/internal/server.ReadRequest"}, "net"},
		{[]string{"runtime.findRunnable", "runtime.schedule"}, "runtime"},
		{[]string{"strconv.AppendUint", "main.makeValue"}, "bench"},
		{[]string{"uhtm/internal/trace.(*Recorder).Emit"}, "other"},
	} {
		if got := moduleOf(c.stack); got != c.want {
			t.Errorf("moduleOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestAttribute(t *testing.T) {
	text := `File: perfbench
Type: cpu
-----------+-------------------------------------------------------
      30ms   uhtm/internal/cache.(*Cache).Insert
             uhtm/internal/core.(*Machine).commit
-----------+-------------------------------------------------------
      10ms   runtime.futex
             runtime.findRunnable
-----------+-------------------------------------------------------
`
	shares, n, err := attribute([]byte(text))
	if err != nil {
		t.Fatal(err)
	}
	if shares["cache"] != 0.75 || shares["runtime"] != 0.25 || n != 40*cpuProfileHz/1000 {
		t.Errorf("shares %v samples %d", shares, n)
	}
}

func TestDeriveSpans(t *testing.T) {
	r := newRecorder(2)
	ev := func(k int, at int64, p point) { r.shards[k].add(at*1000, p) }
	ev(0, 0, ptCommitBegin)
	ev(0, 4, ptCommitCleanup)
	ev(0, 10, ptReclaimBegin)
	ev(0, 11, ptReclaimRings)
	ev(0, 15, ptReclaimCtrl)
	ev(0, 18, ptReclaimCtrl)
	ev(0, 20, ptAbortBegin)
	ev(0, 23, ptAbortDone)
	// One cross-shard transaction: both shards prepare, shard 0
	// decides, both apply.
	ev(1, 30, ptPrepare)
	ev(0, 32, ptPrepare)
	ev(0, 35, ptDecision)
	ev(0, 36, ptApplyMark)
	ev(1, 37, ptApplyMark)
	ev(1, 41, ptApplyLine)
	ev(0, 42, ptResolve)
	sp := r.derive()
	want := spans{commit: []float64{4}, abort: []float64{3}, reclaim: []float64{8}, decide: []float64{3}, apply: []float64{6}, reclaimPasses: 1}
	if fmt.Sprint(sp) != fmt.Sprint(want) {
		t.Errorf("derive = %+v\nwant     %+v", sp, want)
	}
}

// TestGridReference checks the stored plan: 45 cells committing 684
// transactions in total.
func TestGridReference(t *testing.T) {
	ref, err := parseRef(fig6Ref)
	if err != nil {
		t.Fatal(err)
	}
	var commits uint64
	for _, c := range ref.cells {
		commits += c.commits
	}
	if len(ref.cells) != 45 || commits != 684 || len(ref.digest) != 64 {
		t.Errorf("reference: %d cells, %d commits, digest %q", len(ref.cells), commits, ref.digest)
	}
}
