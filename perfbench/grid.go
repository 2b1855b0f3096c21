package main

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"uhtm/internal/core"
	"uhtm/internal/mem"
	"uhtm/internal/sim"
	"uhtm/internal/stats"
	"uhtm/internal/workload"
)

// The grid workload regenerates Fig. 6 through the experiment registry,
// as `uhtmsim -scale 0.02 -par 2 fig6` does.
const (
	gridExperiment = "fig6"
	gridScale      = 0.02
	gridPar        = 2
	// refSeed is the experiments' default seed; the stored digest is
	// taken there.
	refSeed = 42
	// gridSetups set-ups are timed for the setup_s median, each
	// building one machine per cell of the grid. A single build takes
	// a few milliseconds, so on its own it is mostly noise.
	gridSetups = 5
)

// fig6Ref holds the digest of the grid at refSeed and the planned
// commit count of every cell. Regenerate it with -write-ref only when a
// change is meant to move simulated results.
//
//go:embed fig6.ref
var fig6Ref string

// gridRef is the parsed reference.
type gridRef struct {
	digest string
	cells  []cellPlan
}

// cellPlan is one cell's identity and planned commit count.
type cellPlan struct {
	system, bench string
	commits       uint64
}

func parseRef(text string) (gridRef, error) {
	var ref gridRef
	for i, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		switch {
		case f[0] == "digest" && len(f) == 2:
			ref.digest = f[1]
		case f[0] == "cell" && len(f) == 4:
			n, err := strconv.ParseUint(f[3], 10, 64)
			if err != nil {
				return ref, fmt.Errorf("fig6.ref line %d: %v", i+1, err)
			}
			ref.cells = append(ref.cells, cellPlan{f[1], f[2], n})
		default:
			return ref, fmt.Errorf("fig6.ref line %d: cannot parse %q", i+1, line)
		}
	}
	if ref.digest == "" || len(ref.cells) == 0 {
		return ref, fmt.Errorf("fig6.ref: missing digest or cells")
	}
	return ref, nil
}

// gridDigest hashes the folded table and every cell's simulated
// statistics: everything the grid computes except host wall time.
func gridDigest(tbl *stats.Table, rs []workload.Result) (string, error) {
	h := sha256.New()
	fmt.Fprintln(h, tbl.Format())
	for _, r := range rs {
		st, err := json.Marshal(r.Stats)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s|%s|%d|%s\n", r.System, r.Bench, r.Elapsed, st)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// checkGrid checks one pass: every cell commits what the plan says (at
// any seed), and at refSeed the digest matches. It returns the number
// of checks made.
func checkGrid(ref gridRef, seed int64, tbl *stats.Table, rs []workload.Result, rep *report) int {
	if len(rs) != len(ref.cells) {
		rep.fail("grid has %d cells, plan has %d", len(rs), len(ref.cells))
		return 1
	}
	for i, r := range rs {
		c := ref.cells[i]
		if r.System != c.system || string(r.Bench) != c.bench || r.Stats.Commits != c.commits {
			rep.fail("cell %d: %s/%s committed %d, plan %s/%s %d", i, r.System, r.Bench, r.Stats.Commits, c.system, c.bench, c.commits)
		}
	}
	if seed != refSeed {
		return len(rs)
	}
	d, err := gridDigest(tbl, rs)
	if err != nil || d != ref.digest {
		rep.fail("grid digest %s (%v), reference %s", d, err, ref.digest)
	}
	return len(rs) + 1
}

func gridOptions(seed int64) workload.RunOptions {
	return workload.RunOptions{Scale: gridScale, Par: gridPar, Seed: seed, SeedSet: true}
}

// gridPass runs the grid once and returns its results and host wall.
func gridPass(seed int64) (*stats.Table, []workload.Result, time.Duration, error) {
	t0 := time.Now()
	tbl, rs, err := workload.RunExperiment(gridExperiment, gridOptions(seed))
	return tbl, rs, time.Since(t0), err
}

// gridSetup builds cells Table III machines after a collection and
// returns the host seconds it took.
func gridSetup(cells int, seed int64) float64 {
	settle()
	t0 := time.Now()
	for i := 0; i < cells; i++ {
		core.NewMachine(sim.NewEngine(seed+int64(i)), mem.DefaultConfig(), core.DefaultOptions())
	}
	return time.Since(t0).Seconds()
}

// runGrid runs the grid-fig6 workload: timed machine builds as set-up,
// then as many grid passes as fit in o.seconds (at least one). With
// o.trace it runs one untraced pass for the overhead, then one pass
// under the CPU profile.
func runGrid(o options) (*report, error) {
	runtime.GOMAXPROCS(gridPar)
	ref, err := parseRef(fig6Ref)
	if err != nil {
		return nil, err
	}
	rep := newReport()

	// The grid does nothing before its first cell, so set-up times the
	// step every cell begins with: building the Table III machine, once
	// per cell.
	var setups []float64
	for i := 0; i < gridSetups; i++ {
		setups = append(setups, gridSetup(len(ref.cells), o.seed))
	}

	var untraced time.Duration
	if o.trace {
		settle()
		tbl, rs, wall, err := gridPass(o.seed)
		if err != nil {
			return nil, err
		}
		rep.attempted += checkGrid(ref, o.seed, tbl, rs, rep)
		untraced = wall
	}

	settle()
	var prof *cpuProfile
	if o.trace {
		if prof, err = startCPUProfile(o.workload, o.seed); err != nil {
			return nil, err
		}
	}
	var walls, cells []float64
	var last []workload.Result
	a0 := allocBytes()
	start := time.Now()
	for {
		tbl, rs, wall, err := gridPass(o.seed)
		if err != nil {
			return nil, err
		}
		rep.attempted += checkGrid(ref, o.seed, tbl, rs, rep)
		walls = append(walls, wall.Seconds())
		for _, r := range rs {
			cells = append(cells, float64(r.Wall)/float64(time.Microsecond))
		}
		last = rs
		if o.trace || time.Since(start).Seconds()+wall.Seconds() > o.seconds {
			break
		}
	}
	allocated := allocBytes() - a0
	if o.trace {
		if err := prof.stop(); err != nil {
			return nil, err
		}
	}

	wall := median(walls)
	cs := sorted(cells)
	rep.set("throughput_rps", float64(len(last))/wall, "1/s", len(walls))
	rep.set("p50_us", quantile(cs, 0.50), "us", len(cs))
	rep.set("p99_us", quantile(cs, 0.99), "us", len(cs))
	if supports(len(cs), 0.999) {
		rep.set("p999_us", quantile(cs, 0.999), "us", len(cs))
	}
	rep.set("write_p99_us", quantile(cs, 0.99), "us", len(cs))
	rep.set("alloc_kb_per_op", float64(allocated)/float64(len(cells))/1024, "KB", len(cells))
	rep.set("harness.wall_s", wall, "s", len(walls))
	if !o.trace {
		rep.set("setup_s", median(setups), "s", len(setups))
		return rep, nil
	}

	if err := setCPUShares(rep, prof); err != nil {
		return nil, err
	}
	var sum stats.Stats
	var cellSum, cellMax float64
	for _, r := range last {
		sum.Add(&r.Stats)
		cellSum += r.Wall.Seconds()
		cellMax = max(cellMax, r.Wall.Seconds())
	}
	rep.set("trace.overhead", 1-untraced.Seconds()/wall, "ratio", 2)
	setCoreCounts(rep, &sum)
	rep.set("signature.checks", float64(sum.SigChecks), "count", 1)
	rep.set("harness.cell_s.max", cellMax, "s", len(last))
	rep.set("harness.par_eff", cellSum/(wall*gridPar), "ratio", len(last))
	// The grid's machines are private to the experiment registry, so
	// the hook- and STATS-based layers have nothing to report here.
	rep.zero(hookMetrics...)
	rep.zero(serverMetrics...)
	return rep, nil
}

// writeRef regenerates the reference file at refSeed.
func writeRef(path string) error {
	tbl, rs, _, err := gridPass(refSeed)
	if err != nil {
		return err
	}
	d, err := gridDigest(tbl, rs)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# %s at scale %g, par %d: sha256 of the folded table and per-cell\n", gridExperiment, gridScale, gridPar)
	fmt.Fprintf(w, "# simulated statistics at seed %d (see gridDigest).\n", refSeed)
	fmt.Fprintf(w, "digest %s\n", d)
	fmt.Fprintln(w, "# Planned commits per cell (system bench commits): the same at every seed.")
	for _, r := range rs {
		fmt.Fprintf(w, "cell %s %s %d\n", r.System, r.Bench, r.Stats.Commits)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
