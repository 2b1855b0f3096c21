package shard

import (
	"fmt"
	"strconv"
	"strings"

	"uhtm/internal/core"
	"uhtm/internal/crash"
	"uhtm/internal/mem"
)

// SweepConfig is the cluster shape the cross-shard crash sweep runs:
// small enough for an exhaustive sweep over every 2PC injection point,
// with a shrunken cache hierarchy (conflicts and overflows within a
// handful of writes), commit tracking for the oracle, and Par 1 so the
// counting pass may install one counter per shard without races.
func SweepConfig() Config {
	cfg := Config{
		Shards:        2,
		CoresPerShard: 2,
		Domains:       1,
		Rounds:        2,
		TxPerCore:     2,
		WritesPerTx:   2,
		ReadsPerTx:    1,
		CrossPerRound: 3,
		CrossShards:   2,
		LinesPerShard: 8,
		Seed:          42,
		Par:           1,
	}
	g := mem.DefaultConfig()
	g.L1Size = 8 * mem.LineSize
	g.L1Ways = 2
	g.LLCSize = 8 * mem.LineSize
	g.LLCWays = 4
	g.DRAMCacheSize = 64 * mem.LineSize
	g.DRAMCacheWays = 4
	cfg.Geom = &g
	opts := core.DefaultOptions()
	opts.TrackCommits = true
	cfg.Opts = opts
	return cfg
}

// shardPoint formats a shard-qualified injection-point name.
func shardPoint(k int, point string) string {
	return fmt.Sprintf("s%d.%s", k, point)
}

// splitPoint parses a shard-qualified point name back into (shard,
// point).
func splitPoint(p string) (int, string, error) {
	rest, ok := strings.CutPrefix(p, "s")
	if !ok {
		return 0, "", fmt.Errorf("shard: point %q lacks s<k>. prefix", p)
	}
	dot := strings.IndexByte(rest, '.')
	if dot < 0 {
		return 0, "", fmt.Errorf("shard: point %q lacks s<k>. prefix", p)
	}
	k, err := strconv.Atoi(rest[:dot])
	if err != nil {
		return 0, "", fmt.Errorf("shard: point %q: bad shard index: %v", p, err)
	}
	return k, rest[dot+1:], nil
}

// Enumerate runs the cluster once with a private counting injector per
// shard and returns the exhaustive injection list (points qualified
// "s<k>.<point>") plus the merged visit counts. The run must complete
// uncrashed.
func Enumerate(cfg Config) ([]crash.Injection, map[string]int, error) {
	c := New(cfg)
	counters := make([]*crash.Injector, len(c.shards))
	for k := range c.shards {
		counters[k] = crash.NewCounter()
		c.SetHook(k, counters[k].Hit)
	}
	res := c.Run()
	if res.Halted {
		return nil, nil, fmt.Errorf("shard: enumeration run halted unexpectedly")
	}
	merged := make(map[string]int)
	for k, in := range counters {
		for p, n := range in.Hits() {
			merged[shardPoint(k, p)] = n
		}
	}
	if len(merged) == 0 {
		return nil, nil, fmt.Errorf("shard: cluster fired no injection points")
	}
	return crash.EnumerateHits(merged), merged, nil
}

// RunInjection replays the cluster, kills the named shard at the
// injection, runs cross-shard recovery, and verifies both the per-shard
// committed-prefix oracle (crash.VerifyRecovered) and cluster-wide 2PC
// atomicity: every issued cross transaction is applied on all of its
// participants or on none, exactly according to the durable decision
// evidence. Failures land in the Outcome verdict, never a panic.
func RunInjection(cfg Config, inj crash.Injection) crash.Outcome {
	cfg = cfg.normalized()
	out := crash.Outcome{
		Workload: fmt.Sprintf("shard-%dx%d", cfg.Shards, cfg.CoresPerShard),
		Point:    inj.Point, Visit: inj.Visit, Seed: cfg.Seed,
	}
	k, point, err := splitPoint(inj.Point)
	if err != nil || k >= cfg.Shards {
		out.Verdict = fmt.Sprintf("fail: %v", err)
		return out
	}
	c := New(cfg)
	baselines := make([]map[mem.Addr]mem.Line, len(c.shards))
	for i, sh := range c.shards {
		baselines[i] = crash.Baseline(sh.m)
	}
	in := crash.Arm(crash.Injection{Point: point, Visit: inj.Visit})
	in.SetHalt(c.shards[k].eng.HaltNow)
	c.SetHook(k, in.Hit)

	res := c.Run()
	out.Elapsed = res.Elapsed
	out.Stats = res.Stats
	if !in.Fired() {
		out.Verdict = fmt.Sprintf("fail: point %s visit %d never reached (saw %d visits)",
			inj.Point, inj.Visit, in.Hits()[point])
		return out
	}
	in.Disarm()

	rec := c.Recover()
	for _, rs := range rec.PerShard {
		out.Replay.CommittedTx += rs.CommittedTx
		out.Replay.AppliedLines += rs.AppliedLines
		out.Replay.DiscardedTx += rs.DiscardedTx
		out.Replay.DiscardedRecs += rs.DiscardedRecs
		out.Replay.TornRecs += rs.TornRecs
		out.Replay.StaleTx += rs.StaleTx
		out.Replay.StaleRecs += rs.StaleRecs
	}
	if detail := c.verify(rec, baselines); detail != "" {
		out.Verdict = "fail: " + detail
		return out
	}
	out.Verdict = "ok"
	return out
}

// verify checks a recovered cluster: the exported per-shard oracle plus
// the cross-shard atomicity invariants. Returns "" when everything
// holds.
func (c *Cluster) verify(rec Recovery, baselines []map[mem.Addr]mem.Line) string {
	// Per-shard committed-prefix equality. The mid-commit bound covers
	// one local transaction per core; cross applies are all registered
	// by the completion pass, so they never count as mid.
	for i, sh := range c.shards {
		if d := crash.VerifyRecovered(sh.m, c.cfg.CoresPerShard+c.cfg.CrossPerRound, baselines[i]); d != "" {
			return fmt.Sprintf("shard %d: %s", i, d)
		}
	}
	// Cluster atomicity: a cross transaction is applied on all its
	// participants iff it was durably decided commit (or resolved at or
	// below the cell and admitted); never anywhere otherwise.
	for _, tx := range c.waves {
		expect := rec.DecidedCommit[tx.seq] || (tx.seq <= rec.Cell && tx.admitted)
		for s, ws := range tx.writes {
			if len(ws) == 0 {
				continue
			}
			applied := inCommitLog(c.shards[s], tx.gid)
			if expect && !applied {
				return fmt.Sprintf("cross tx %s missing on shard %d after recovery", tx, s)
			}
			if !expect && applied {
				return fmt.Sprintf("cross tx %s applied on shard %d without a durable commit decision", tx, s)
			}
		}
	}
	return ""
}
