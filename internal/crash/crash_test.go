package crash

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"uhtm/internal/core"
	"uhtm/internal/mem"
	"uhtm/internal/wal"
)

// requiredPoints is the full set of injection points the small workload
// must reach: every step of the commit, abort and reclamation protocols
// plus the log-append and per-line persist points beneath them. The
// exhaustive sweep is only meaningful if all of them are visited.
var requiredPoints = []string{
	core.PointCommitBegin,
	core.PointCommitRecord,
	core.PointCommitMark,
	core.PointCommitFlush,
	core.PointCommitDRAM,
	core.PointCommitCleanup,
	core.PointAbortBegin,
	core.PointAbortUndo,
	core.PointAbortMark,
	core.PointAbortDone,
	core.PointReclaimBegin,
	core.PointReclaimImage,
	core.PointReclaimDrain,
	core.PointReclaimCkpt,
	core.PointReclaimRings,
	"wal.redo.append.record",
	"wal.redo.append.ctrl",
	"wal.redo.reclaim.ctrl",
	"wal.undo.append.record",
	"wal.undo.append.ctrl",
	"wal.undo.reclaim.ctrl",
	mem.PointPersistLine,
}

func TestInjectorCounting(t *testing.T) {
	in := NewCounter()
	in.Hit("a")
	in.Hit("b")
	in.Hit("a")
	if in.Fired() {
		t.Error("counting injector fired")
	}
	if got := in.Hits()["a"]; got != 2 {
		t.Errorf("hits[a] = %d, want 2", got)
	}
	if got := in.Points(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("Points = %v", got)
	}
	injs := enumerate(in.Hits())
	want := []Injection{{"a", 1}, {"a", 2}, {"b", 1}}
	if !reflect.DeepEqual(injs, want) {
		t.Errorf("enumerate = %v, want %v", injs, want)
	}
}

func TestInjectorArming(t *testing.T) {
	in := Arm(Injection{Point: "p", Visit: 2})
	halted := false
	in.halt = func() { halted = true }
	in.Hit("p")
	if in.Fired() || halted {
		t.Fatal("fired on visit 1, armed for visit 2")
	}
	in.Hit("q")
	in.Hit("p")
	if !in.Fired() || !halted {
		t.Fatal("did not fire on visit 2")
	}
	// Disarmed after firing: further hits are ignored.
	in.Hit("p")
	if in.Hits()["p"] != 2 {
		t.Errorf("hits[p] = %d after disarm, want 2", in.Hits()["p"])
	}
}

// TestExhaustiveSmallSweep is the acceptance test for the framework:
// every (point, visit) pair of the small workload is injected, and
// recovery must satisfy the committed-prefix oracle at all of them.
func TestExhaustiveSmallSweep(t *testing.T) {
	w := SmallWorkload()
	injs, hits, err := Enumerate(w)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range requiredPoints {
		if hits[p] == 0 {
			t.Errorf("required injection point %s never visited", p)
		}
	}
	fails := 0
	for _, inj := range injs {
		o := RunInjection(w, inj)
		if !o.OK() {
			fails++
			if fails <= 10 {
				t.Errorf("%s visit %d: %s", inj.Point, inj.Visit, o.Verdict)
			}
		}
	}
	if fails > 0 {
		t.Errorf("%d/%d injections violated recovery invariants", fails, len(injs))
	}
	t.Logf("verified %d injections across %d points", len(injs), len(hits))
}

// TestSampledLargeSweep checks the seeded-random mode on the large
// workload: a deterministic sample of its thousands of injection points.
func TestSampledLargeSweep(t *testing.T) {
	w := LargeWorkload()
	injs, hits, err := Enumerate(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(injs) < 1000 {
		t.Fatalf("large workload enumerated only %d injections", len(injs))
	}
	for _, p := range requiredPoints {
		if hits[p] == 0 {
			t.Errorf("required injection point %s never visited", p)
		}
	}
	n := 24
	if testing.Short() {
		n = 6
	}
	for _, inj := range Sample(injs, n, 1) {
		if o := RunInjection(w, inj); !o.OK() {
			t.Errorf("%s visit %d: %s", inj.Point, inj.Visit, o.Verdict)
		}
	}
}

func TestSampleDeterministic(t *testing.T) {
	injs := enumerate(map[string]int{"a": 5, "b": 5, "c": 5})
	s1 := Sample(injs, 4, 9)
	s2 := Sample(injs, 4, 9)
	if !reflect.DeepEqual(s1, s2) {
		t.Errorf("same seed, different samples: %v vs %v", s1, s2)
	}
	if len(s1) != 4 {
		t.Errorf("sample size = %d, want 4", len(s1))
	}
	all := Sample(injs, 100, 9)
	if !reflect.DeepEqual(all, injs) {
		t.Error("oversized sample should return all injections")
	}
}

// TestInjectionDeterministic: the same injection must produce the same
// crash state (virtual time, replay shape, verdict) on every run — the
// property that lets sweeps fan out across workers.
func TestInjectionDeterministic(t *testing.T) {
	w := SmallWorkload()
	inj := Injection{Point: core.PointCommitFlush, Visit: 7}
	a := RunInjection(w, inj)
	b := RunInjection(w, inj)
	if a.Verdict != b.Verdict || a.Elapsed != b.Elapsed || a.Replay != b.Replay {
		t.Errorf("nondeterministic injection: %+v vs %+v", a, b)
	}
	if !a.OK() {
		t.Errorf("verdict: %s", a.Verdict)
	}
}

// TestVerifyRecoveredDetectsTamperedLine: the committed-prefix oracle
// accepts a correctly recovered machine and reports a durable data line
// changed after recovery.
func TestVerifyRecoveredDetectsTamperedLine(t *testing.T) {
	w := SmallWorkload()
	st := w.build(nil)
	st.eng.Run()
	st.m.Crash()
	st.m.Recover()
	if d := VerifyRecovered(st.m, w.Threads, st.baseline); d != "" {
		t.Fatalf("clean recovery rejected: %s", d)
	}
	la := st.nvmPool[0]
	ln := st.m.Store().PeekLine(la)
	ln[0] ^= 0xFF
	st.m.Store().WriteLine(la, &ln)
	st.m.Store().PersistLine(la, &ln)
	d := VerifyRecovered(st.m, w.Threads, st.baseline)
	if want := fmt.Sprintf("line %#x", uint64(la)); !strings.Contains(d, want) {
		t.Fatalf("tampered line: oracle said %q, want a report on %s", d, want)
	}
}

// TestSweepVerifyDetectsMidCommitImageMismatch: a crash between a
// transaction's durable commit mark and its commit-log registration
// leaves a mid-commit transaction, whose effect the oracle rebuilds
// from its durable redo images. The sweep's verify must reject those
// images when they disagree with the intent the workload recorded.
func TestSweepVerifyDetectsMidCommitImageMismatch(t *testing.T) {
	w := SmallWorkload()
	inj := Injection{Point: core.PointCommitFlush, Visit: 1}
	if out := RunInjection(w, inj); !out.OK() {
		t.Fatalf("untampered run: %s", out.Verdict)
	}
	in := Arm(inj)
	st := w.build(in)
	st.eng.Run()
	if !in.Fired() {
		t.Fatal("injection never fired")
	}
	in.Disarm()

	committed := make(map[uint64]bool)
	for _, c := range st.m.CommitLog() {
		committed[c.ID] = true
	}
	var mid uint64
	for _, r := range st.m.DurableRedoRecords() {
		if r.Type == wal.RecCommit && r.LSN > st.m.Checkpoint() && !committed[r.TxID] {
			mid = r.TxID
		}
	}
	if mid == 0 {
		t.Fatalf("no mid-commit transaction at %s visit %d", inj.Point, inj.Visit)
	}
	for la, v := range st.intents[mid] {
		st.intents[mid][la] = v ^ 1
		break
	}
	detail, _ := verify(w, st)
	if want := fmt.Sprintf("mid-commit tx %d", mid); !strings.Contains(detail, want) {
		t.Fatalf("tampered intent: verify said %q, want a report on %s", detail, want)
	}
}
