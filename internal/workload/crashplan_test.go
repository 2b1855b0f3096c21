package workload

import (
	"strings"
	"testing"

	"uhtm/internal/crash"
	"uhtm/internal/shard"
)

func TestEnumerateFindsTwoPCPoints(t *testing.T) {
	injs, hits, err := crash.Enumerate(clusterTarget(shard.SweepConfig()))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		shard.PointPrepareLogged, shard.PointDecisionLogged, shard.PointApplyMark,
		shard.PointApplyLine, shard.PointResolveCkpt,
		shard.PointPrefixDecision + "append.record",
		shard.PointPrefixDecision + "append.ctrl",
		shard.PointPrefixDecision + "reclaim.ctrl",
	} {
		found := false
		for p := range hits {
			if strings.Contains(p, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no injection point matching %q enumerated", want)
		}
	}
	if len(injs) == 0 {
		t.Fatalf("no injections enumerated")
	}
}

// TestCrashSweepTwoPCPoints injects a crash at every (point, visit) of
// every 2PC protocol step — the shard.* namespace — and verifies
// recovery with the committed-prefix oracle plus cluster atomicity.
func TestCrashSweepTwoPCPoints(t *testing.T) {
	target := clusterTarget(shard.SweepConfig())
	injs, _, err := crash.Enumerate(target)
	if err != nil {
		t.Fatal(err)
	}
	twoPC, _ := splitTwoPC(injs)
	for _, inj := range twoPC {
		if out := crash.RunInjection(target, inj); !out.OK() {
			t.Errorf("%s visit %d: %s", out.Point, out.Visit, out.Verdict)
		}
	}
	if len(twoPC) == 0 {
		t.Fatalf("no shard.* injections found")
	}
	t.Logf("swept %d 2PC injection points", len(twoPC))
}

// TestCrashSweepSampledMachinePoints samples the non-2PC points (the
// underlying core.*/wal.*/mem.* protocol steps running inside a sharded
// cluster) and verifies the same invariants there.
func TestCrashSweepSampledMachinePoints(t *testing.T) {
	if testing.Short() {
		t.Skip("sampled sweep is slow")
	}
	cfg := shard.SweepConfig()
	target := clusterTarget(cfg)
	injs, _, err := crash.Enumerate(target)
	if err != nil {
		t.Fatal(err)
	}
	_, machine := splitTwoPC(injs)
	for _, inj := range crash.Sample(machine, 32, cfg.Seed) {
		if out := crash.RunInjection(target, inj); !out.OK() {
			t.Errorf("%s visit %d: %s", out.Point, out.Visit, out.Verdict)
		}
	}
}
