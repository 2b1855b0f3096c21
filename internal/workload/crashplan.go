package workload

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"uhtm/internal/crash"
	"uhtm/internal/harness"
	"uhtm/internal/shard"
	"uhtm/internal/stats"
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
		w   crash.Workload
		inj crash.Injection
	}
	var jobs []job

	small := crash.SmallWorkload()
	large := crash.LargeWorkload()
	ring := crash.RingWorkload()
	if opt.seedOverride() {
		small.Seed = opt.Seed
		large.Seed = opt.Seed
		ring.Seed = opt.Seed
	}

	smallInjs, _, err := crash.Enumerate(small)
	if err != nil {
		return nil, nil, err
	}
	for _, inj := range smallInjs {
		jobs = append(jobs, job{small, inj})
	}

	largeInjs, _, err := crash.Enumerate(large)
	if err != nil {
		return nil, nil, err
	}
	scale := opt.Scale
	if scale <= 0 {
		scale = 1.0
	}
	n := int(math.Ceil(crashSamplesFullScale * scale))
	if n < 4 {
		n = 4
	}
	for _, inj := range crash.Sample(largeInjs, n, large.Seed) {
		jobs = append(jobs, job{large, inj})
	}

	scfg := shard.SweepConfig()
	if opt.seedOverride() {
		scfg.Seed = opt.Seed
	}
	shardInjs, _, err := shard.Enumerate(scfg)
	if err != nil {
		return nil, nil, err
	}
	var twoPC, machine []crash.Injection
	for _, inj := range shardInjs {
		if strings.Contains(inj.Point, "shard.") {
			twoPC = append(twoPC, inj)
		} else {
			machine = append(machine, inj)
		}
	}
	nShard := int(math.Ceil(shardSamplesFullScale * scale))
	if nShard < 4 {
		nShard = 4
	}
	shardJobs := append(twoPC, crash.Sample(machine, nShard, scfg.Seed)...)

	ringInjs, _, err := crash.Enumerate(ring)
	if err != nil {
		return nil, nil, err
	}

	specs := make([]harness.Spec[Result], 0, len(jobs)+len(shardJobs)+len(ringInjs))
	machineSpec := func(j job) harness.Spec[Result] {
		return harness.Spec[Result]{
			Experiment: "crash",
			System:     j.w.Name,
			Bench:      j.inj.Point,
			Seed:       j.w.Seed,
			Run: func() Result {
				start := time.Now()
				o := crash.RunInjection(j.w, j.inj)
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
				}
			},
		}
	}
	for _, j := range jobs {
		specs = append(specs, machineSpec(j))
	}
	for _, inj := range shardJobs {
		inj := inj
		specs = append(specs, harness.Spec[Result]{
			Experiment: "crash",
			System:     fmt.Sprintf("shard-%dx%d", scfg.Shards, scfg.CoresPerShard),
			Bench:      inj.Point,
			Seed:       scfg.Seed,
			Run: func() Result {
				start := time.Now()
				o := shard.RunInjection(scfg, inj)
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
					Shards:     scfg.Shards,
				}
			},
		})
	}
	// The small-ring workload goes last, so the records of the others
	// keep their positions.
	for _, inj := range ringInjs {
		specs = append(specs, machineSpec(job{ring, inj}))
	}
	results := harness.Execute(specs, opt.Par)
	return foldCrash(results), results, nil
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
