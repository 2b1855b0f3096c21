package shard

import (
	"bytes"
	"testing"

	"uhtm/internal/stats"
	"uhtm/internal/trace"
)

// run executes a fresh sweep-shaped cluster at the given parallelism,
// with tracing on, and returns it plus its result.
func runSweepCluster(t *testing.T, par int) (*Cluster, Result) {
	t.Helper()
	cfg := SweepConfig()
	cfg.Par = par
	cfg.Trace = true
	c := New(cfg)
	res := c.Run()
	if res.Halted {
		t.Fatalf("uninjected run halted")
	}
	return c, res
}

func TestClusterRunsAndCommitsCrossTxs(t *testing.T) {
	cfg := SweepConfig()
	_, res := runSweepCluster(t, 1)
	if res.CrossCommits == 0 {
		t.Fatalf("no cross-shard commits (aborts=%d)", res.CrossAborts)
	}
	if res.CrossAborts == 0 {
		t.Fatalf("no cross-shard conflict aborts — wave admission untested (commits=%d)", res.CrossCommits)
	}
	if got, want := res.CrossCommits+res.CrossAborts, uint64(cfg.Rounds*cfg.CrossPerRound); got != want {
		t.Fatalf("decided %d cross txs, want %d", got, want)
	}
	wantLocal := uint64(cfg.Shards * cfg.CoresPerShard * cfg.Rounds * cfg.TxPerCore)
	if res.Stats.Commits != wantLocal {
		t.Fatalf("local commits = %d, want %d", res.Stats.Commits, wantLocal)
	}
}

func TestSingleShardHasNoCrossTraffic(t *testing.T) {
	cfg := SweepConfig()
	cfg.Shards = 1
	c := New(cfg)
	res := c.Run()
	if res.Halted {
		t.Fatalf("run halted")
	}
	if res.CrossCommits != 0 || res.CrossAborts != 0 {
		t.Fatalf("single-shard cluster ran cross txs: commits=%d aborts=%d", res.CrossCommits, res.CrossAborts)
	}
	if res.Stats.Commits == 0 {
		t.Fatalf("no local commits")
	}
	if c.decLog.Appends != 0 {
		t.Fatalf("decision log saw %d appends in a single-shard run", c.decLog.Appends)
	}
}

// TestMergedTraceDeterministicAcrossPar is the merged-trace determinism
// gate: the virtual-time-merged Chrome trace of a sharded run must be
// byte-identical at any OS-thread parallelism.
func TestMergedTraceDeterministicAcrossPar(t *testing.T) {
	c1, res1 := runSweepCluster(t, 1)
	c8, res8 := runSweepCluster(t, 8)

	if res1 != res8 {
		t.Fatalf("results differ across par:\n par1: %+v\n par8: %+v", res1, res8)
	}
	ev1, ev8 := c1.MergedTrace(), c8.MergedTrace()
	if len(ev1) == 0 {
		t.Fatalf("merged trace is empty")
	}
	var b1, b8 bytes.Buffer
	cause := func(c uint64) string { return stats.AbortCause(c).String() }
	if err := trace.WriteChrome(&b1, []trace.Run{{Label: "shard", Events: ev1}}, cause); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteChrome(&b8, []trace.Run{{Label: "shard", Events: ev8}}, cause); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b8.Bytes()) {
		t.Fatalf("merged Chrome trace differs between par=1 (%d bytes) and par=8 (%d bytes)", b1.Len(), b8.Len())
	}
}

// TestMergedTraceRemapsIdentities checks the merge's core and
// transaction remapping: global core IDs span every shard and local
// transaction IDs from different shards never collide.
func TestMergedTraceRemapsIdentities(t *testing.T) {
	c, _ := runSweepCluster(t, 1)
	cfg := c.cfg
	coresSeen := map[int32]bool{}
	txShards := map[uint64]map[int]bool{} // remapped local tx → shards claiming it
	for _, ev := range c.MergedTrace() {
		if ev.Core >= 0 {
			if int(ev.Core) >= cfg.Shards*cfg.CoresPerShard {
				t.Fatalf("core %d out of global range", ev.Core)
			}
			coresSeen[ev.Core] = true
		}
		if ev.TxID != 0 && ev.TxID < GIDBase {
			k := int(ev.TxID >> txOffsetShift)
			if txShards[ev.TxID] == nil {
				txShards[ev.TxID] = map[int]bool{}
			}
			txShards[ev.TxID][k] = true
		}
	}
	if len(coresSeen) != cfg.Shards*cfg.CoresPerShard {
		t.Fatalf("saw %d distinct cores, want %d", len(coresSeen), cfg.Shards*cfg.CoresPerShard)
	}
	for id, shards := range txShards {
		if len(shards) != 1 {
			t.Fatalf("remapped local tx %#x claimed by %d shards", id, len(shards))
		}
	}
}

// TestRecoverAfterCleanRun checks recovery idempotence with no crash at
// all: every decided transaction is already resolved, so the completion
// pass has nothing to do.
func TestRecoverAfterCleanRun(t *testing.T) {
	c, res := runSweepCluster(t, 1)
	rec := c.Recover()
	if rec.Completed != 0 || rec.Noted != 0 {
		t.Fatalf("clean run needed completion work: completed=%d noted=%d", rec.Completed, rec.Noted)
	}
	if rec.Cell == 0 || rec.Cell != res.CrossCommits+res.CrossAborts {
		t.Fatalf("cell = %d, want %d", rec.Cell, res.CrossCommits+res.CrossAborts)
	}
}
