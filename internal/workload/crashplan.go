package workload

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"uhtm/internal/crash"
	"uhtm/internal/harness"
	"uhtm/internal/mem"
	"uhtm/internal/shard"
	"uhtm/internal/sim"
	"uhtm/internal/stats"
	"uhtm/internal/wal"
)

// crashSamplesFullScale is the seeded-random sample size drawn from the
// large workload's injection list at Scale = 1.0 (scaled linearly, with
// a small floor so even smoke runs inject a few large-workload crashes).
const crashSamplesFullScale = 96

// shardSamplesFullScale is the matching sample size for non-2PC points
// of the sharded cluster (the core/wal/mem protocol steps running under
// a sharded run); the 2PC points themselves (shard.*) are always swept
// exhaustively.
const shardSamplesFullScale = 32

// RunCrashSweep executes the crash-point fault-injection sweep: every
// (point, visit) pair of the small workload exhaustively, plus a
// seeded-random sample of the large workload's pairs, plus the sharded
// cluster — every 2PC protocol point (prepare logged, decision logged,
// apply mark, per-line apply, resolution-cell persist) exhaustively and
// a sample of the machine-level points underneath it — plus every pair
// of the small-ring workload (commit-triggered reclamation), each as an
// independent deterministic simulation fanned out across the harness
// worker pool. The returned results carry one record per injection
// (Point/Visit/Verdict populated) in a stable order; the table folds
// them per injection point.
func RunCrashSweep(opt RunOptions) (*stats.Table, []Result, error) {
	type job struct {
		t      crash.Target
		shards int // cluster size of the target (0: one machine)
		inj    crash.Injection
	}
	var jobs []job
	add := func(t crash.Target, shards int, injs []crash.Injection) {
		for _, inj := range injs {
			jobs = append(jobs, job{t, shards, inj})
		}
	}

	small := crash.SmallWorkload()
	large := crash.LargeWorkload()
	ring := crash.RingWorkload()
	scfg := shard.SweepConfig()
	if opt.seedOverride() {
		small.Seed = opt.Seed
		large.Seed = opt.Seed
		ring.Seed = opt.Seed
		scfg.Seed = opt.Seed
	}
	scale := opt.Scale
	if scale <= 0 {
		scale = 1.0
	}
	sampleSize := func(fullScale float64) int {
		return max(int(math.Ceil(fullScale*scale)), 4)
	}

	smallInjs, _, err := crash.Enumerate(small.Target())
	if err != nil {
		return nil, nil, err
	}
	add(small.Target(), 0, smallInjs)

	largeInjs, _, err := crash.Enumerate(large.Target())
	if err != nil {
		return nil, nil, err
	}
	add(large.Target(), 0, crash.Sample(largeInjs, sampleSize(crashSamplesFullScale), large.Seed))

	cluster := clusterTarget(scfg)
	shardInjs, _, err := crash.Enumerate(cluster)
	if err != nil {
		return nil, nil, err
	}
	twoPC, machine := splitTwoPC(shardInjs)
	add(cluster, scfg.Shards, twoPC)
	add(cluster, scfg.Shards, crash.Sample(machine, sampleSize(shardSamplesFullScale), scfg.Seed))

	// The small-ring workload goes last, so the records of the others
	// keep their positions.
	ringInjs, _, err := crash.Enumerate(ring.Target())
	if err != nil {
		return nil, nil, err
	}
	add(ring.Target(), 0, ringInjs)

	specs := make([]harness.Spec[Result], len(jobs))
	for i, j := range jobs {
		specs[i] = harness.Spec[Result]{
			Experiment: "crash",
			System:     j.t.Name,
			Bench:      j.inj.Point,
			Seed:       j.t.Seed,
			Run: func() Result {
				start := time.Now()
				o := crash.RunInjection(j.t, j.inj)
				return Result{
					Experiment: "crash",
					System:     o.Workload,
					Bench:      Bench(o.Point),
					Seed:       o.Seed,
					Stats:      o.Stats,
					Elapsed:    o.Elapsed,
					Wall:       time.Since(start),
					Point:      o.Point,
					Visit:      o.Visit,
					Verdict:    o.Verdict,
					Shards:     j.shards,
				}
			},
		}
	}
	results := harness.Execute(specs, opt.Par)
	return foldCrash(results), results, nil
}

// splitTwoPC separates a cluster's injections into the 2PC protocol's
// own points (shard.*, swept exhaustively) and the machine-level points
// running underneath them (sampled).
func splitTwoPC(injs []crash.Injection) (twoPC, machine []crash.Injection) {
	for _, inj := range injs {
		if strings.Contains(inj.Point, "shard.") {
			twoPC = append(twoPC, inj)
		} else {
			machine = append(machine, inj)
		}
	}
	return twoPC, machine
}

// clusterTarget is the 2PC cluster as a crash-sweep target. Its worlds
// hook every shard into the one sweep hook, each point named
// "s<k>.<point>" and halting shard k's engine; the verification is the
// committed-prefix oracle on every shard plus the cluster's cross
// transaction atomicity (Cluster.VerifyAtomicity).
func clusterTarget(cfg shard.Config) crash.Target {
	// The shards' hooks share one injector, so the shards must run one
	// at a time.
	cfg.Par = 1
	return crash.Target{
		Name: fmt.Sprintf("shard-%dx%d", cfg.Shards, cfg.CoresPerShard),
		Seed: cfg.Seed,
		Build: func(hook crash.Hook) crash.World {
			w := &clusterWorld{c: shard.New(cfg), mid: cfg.CoresPerShard + cfg.CrossPerRound}
			for k, sh := range w.c.Shards() {
				w.baselines = append(w.baselines, crash.Baseline(sh.Machine()))
				prefix, halt := fmt.Sprintf("s%d.", k), sh.Engine().HaltNow
				w.c.SetHook(k, func(point string) { hook(prefix+point, halt) })
			}
			return w
		},
	}
}

// clusterWorld is one built cluster of clusterTarget.
type clusterWorld struct {
	c         *shard.Cluster
	mid       int                     // per-shard mid-commit bound of the oracle (see Recover)
	baselines []map[mem.Addr]mem.Line // per shard, after prepopulation
	res       shard.Result
}

// Run executes the cluster's rounds until they finish or the hook halts
// a shard.
func (w *clusterWorld) Run() (sim.Time, stats.Stats) {
	w.res = w.c.Run()
	return w.res.Elapsed, w.res.Stats
}

// Complete reports whether an uninjected run finished every round.
func (w *clusterWorld) Complete() error {
	if w.res.Halted {
		return errors.New("halted unexpectedly")
	}
	return nil
}

// Recover runs cross-shard recovery and checks it. The mid-commit bound
// of each shard's oracle covers one local transaction per core plus the
// wave's cross transactions; the completion pass registers every cross
// apply, so those never count as mid-commit.
func (w *clusterWorld) Recover() (string, wal.ReplayStats) {
	rec := w.c.Recover()
	var replay wal.ReplayStats
	for _, rs := range rec.PerShard {
		replay.CommittedTx += rs.CommittedTx
		replay.AppliedLines += rs.AppliedLines
		replay.DiscardedTx += rs.DiscardedTx
		replay.DiscardedRecs += rs.DiscardedRecs
		replay.TornRecs += rs.TornRecs
		replay.StaleTx += rs.StaleTx
		replay.StaleRecs += rs.StaleRecs
	}
	for k, sh := range w.c.Shards() {
		if d := crash.VerifyRecovered(sh.Machine(), w.mid, w.baselines[k]); d != "" {
			return fmt.Sprintf("shard %d: %s", k, d), replay
		}
	}
	return w.c.VerifyAtomicity(rec), replay
}

// foldCrash tabulates injections and failures per point.
func foldCrash(rs []Result) *stats.Table {
	type agg struct{ n, fail int }
	per := map[string]*agg{}
	for _, r := range rs {
		a := per[r.Point]
		if a == nil {
			a = &agg{}
			per[r.Point] = a
		}
		a.n++
		if r.Verdict != "ok" {
			a.fail++
		}
	}
	points := make([]string, 0, len(per))
	for p := range per {
		points = append(points, p)
	}
	sort.Strings(points)
	tbl := &stats.Table{Header: []string{"Injection point", "Injections", "Failures"}}
	total, fails := 0, 0
	for _, p := range points {
		a := per[p]
		tbl.AddRow(p, fmt.Sprintf("%d", a.n), fmt.Sprintf("%d", a.fail))
		total += a.n
		fails += a.fail
	}
	tbl.AddRow("TOTAL", fmt.Sprintf("%d", total), fmt.Sprintf("%d", fails))
	return tbl
}

// CrashFailures counts results whose recovery verdict is not "ok".
func CrashFailures(rs []Result) int {
	n := 0
	for _, r := range rs {
		if r.Verdict != "ok" {
			n++
		}
	}
	return n
}
