package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// Schema identifies the BENCH_<n>.json format; bump on incompatible
// changes.
const Schema = "uhtm-bench/1"

// Record is one benchmark's measurement in a BENCH_<n>.json file.
type Record struct {
	Name        string  `json:"name"`
	Iters       int     `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// Metrics carries the custom b.ReportMetric values (e.g.
	// "skiplist-slowdown-x"). encoding/json sorts map keys, so the file
	// bytes are deterministic.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Runs, NsPerOpMin and NsPerOpMax are set by Summarize when the
	// suite ran more than once; NsPerOp is then the median.
	Runs       int     `json:"runs,omitempty"`
	NsPerOpMin float64 `json:"ns_per_op_min,omitempty"`
	NsPerOpMax float64 `json:"ns_per_op_max,omitempty"`
}

// File is the whole BENCH_<n>.json document.
type File struct {
	Schema string   `json:"schema"`
	Go     string   `json:"go"`
	Suite  []Record `json:"suite"`
}

// RunSuite executes every spec via testing.Benchmark and collects one
// record per spec. logf (may be nil) receives one progress line per
// benchmark. A benchmark that fails (b.Fatal, missing grid cell, zero
// baseline) yields r.N == 0 and makes RunSuite return an error naming
// it — a bench run must never silently emit a half-empty baseline.
func RunSuite(logf func(format string, args ...any)) (File, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	f := File{Schema: Schema, Go: runtime.Version()}
	for _, s := range Specs() {
		r := testing.Benchmark(s.Fn)
		if r.N == 0 {
			return f, fmt.Errorf("benchmark %s failed", s.Name)
		}
		rec := Record{
			Name:        s.Name,
			Iters:       r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		if len(r.Extra) > 0 {
			rec.Metrics = make(map[string]float64, len(r.Extra))
			for k, v := range r.Extra {
				rec.Metrics[k] = v
			}
		}
		logf("%-16s %4d iters  %14.0f ns/op  %12d allocs/op", rec.Name, rec.Iters, rec.NsPerOp, rec.AllocsPerOp)
		f.Suite = append(f.Suite, rec)
	}
	return f, nil
}

// Summarize folds repeated runs of the suite into one file: per spec,
// NsPerOp is the median of the runs' ns/op (the mean of the middle two
// for an even count), NsPerOpMin/NsPerOpMax its range and Iters the
// total; AllocsPerOp and BytesPerOp are the worst run's, so the gate
// sees any run that allocated more; Metrics are the first run's. Specs
// keep their first-seen order, and a spec missing from some runs (a
// suite that failed partway) is summarized over the runs that have it.
// A single run is returned unchanged.
func Summarize(runs []File) File {
	if len(runs) == 1 {
		return runs[0]
	}
	var out File
	if len(runs) > 0 {
		out = File{Schema: runs[0].Schema, Go: runs[0].Go}
	}
	by := map[string][]Record{}
	var order []string
	for _, f := range runs {
		for _, r := range f.Suite {
			if by[r.Name] == nil {
				order = append(order, r.Name)
			}
			by[r.Name] = append(by[r.Name], r)
		}
	}
	for _, name := range order {
		rs := by[name]
		sum := rs[0]
		sum.Runs, sum.Iters = len(rs), 0
		ns := make([]float64, len(rs))
		for i, r := range rs {
			ns[i] = r.NsPerOp
			sum.Iters += r.Iters
			sum.AllocsPerOp = max(sum.AllocsPerOp, r.AllocsPerOp)
			sum.BytesPerOp = max(sum.BytesPerOp, r.BytesPerOp)
		}
		sort.Float64s(ns)
		sum.NsPerOp = (ns[(len(ns)-1)/2] + ns[len(ns)/2]) / 2
		sum.NsPerOpMin, sum.NsPerOpMax = ns[0], ns[len(ns)-1]
		out.Suite = append(out.Suite, sum)
	}
	return out
}

// Write emits the file as indented, deterministic JSON.
func (f File) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// Read parses a BENCH_<n>.json document and validates its schema tag.
func Read(r io.Reader) (File, error) {
	var f File
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return f, err
	}
	if f.Schema != Schema {
		return f, fmt.Errorf("bench file schema %q, want %q", f.Schema, Schema)
	}
	return f, nil
}

// allocSlack absorbs run-to-run noise in absolute allocation counts
// (goroutine bookkeeping, one-off map growth): a benchmark only fails
// the gate when it exceeds the baseline by the relative tolerance AND
// by more than this many allocations per op.
const allocSlack = 64

// metricSlack is the absolute slack for gated per-op custom metrics
// (names ending in "/op", e.g. "sched-handoffs/op"): small enough to
// catch a lost fast path, large enough that a metric hovering near zero
// never fails on noise alone.
const metricSlack = 0.05

// Compare checks cur against base. It returns hard failures — a
// benchmark missing from cur, allocs/op beyond base*(1+tol) plus an
// absolute slack, or a custom metric whose name ends in "/op" beyond
// the same envelope — and informational notes (ns/op drift beyond tol,
// benchmarks with no baseline). Allocation counts and per-op event
// counts are the gate because they are machine-independent and
// deterministic; wall-clock on shared CI runners is not. Other custom
// metrics (throughput ratios, percentages) are not gated: they measure
// the simulated machine, and the goldens already pin those outputs
// byte for byte.
func Compare(base, cur File, tol float64) (failures, notes []string) {
	curBy := make(map[string]Record, len(cur.Suite))
	for _, r := range cur.Suite {
		curBy[r.Name] = r
	}
	baseNames := make(map[string]bool, len(base.Suite))
	for _, b := range base.Suite {
		baseNames[b.Name] = true
		c, ok := curBy[b.Name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: missing from current run", b.Name))
			continue
		}
		limit := float64(b.AllocsPerOp)*(1+tol) + allocSlack
		if float64(c.AllocsPerOp) > limit {
			failures = append(failures, fmt.Sprintf("%s: allocs/op %d exceeds baseline %d by more than %.0f%% (+%d slack)",
				b.Name, c.AllocsPerOp, b.AllocsPerOp, 100*tol, allocSlack))
		}
		for _, name := range sortedMetricNames(b.Metrics) {
			if !strings.HasSuffix(name, "/op") {
				continue
			}
			bv := b.Metrics[name]
			cv, ok := c.Metrics[name]
			if !ok {
				failures = append(failures, fmt.Sprintf("%s: metric %s missing from current run", b.Name, name))
				continue
			}
			if cv > bv*(1+tol)+metricSlack {
				failures = append(failures, fmt.Sprintf("%s: %s %.3f exceeds baseline %.3f by more than %.0f%% (+%.2f slack)",
					b.Name, name, cv, bv, 100*tol, metricSlack))
			}
		}
		if b.NsPerOp > 0 && c.NsPerOp > b.NsPerOp*(1+tol) {
			notes = append(notes, fmt.Sprintf("%s: ns/op %.0f vs baseline %.0f (informational: wall-clock is machine-dependent)",
				b.Name, c.NsPerOp, b.NsPerOp))
		}
	}
	for _, c := range cur.Suite {
		if !baseNames[c.Name] {
			notes = append(notes, fmt.Sprintf("%s: no baseline (new benchmark)", c.Name))
		}
	}
	return failures, notes
}

// sortedMetricNames returns m's keys in sorted order so Compare output
// is deterministic.
func sortedMetricNames(m map[string]float64) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
