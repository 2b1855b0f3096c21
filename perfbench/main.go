// Command perfbench is the repository benchmark. It runs one named
// workload in-process against the simulator's public APIs, checks the
// outputs, and prints every metric BENCHMARK.json declares: the
// end-to-end metrics from an untraced run (--trace 0) or the per-layer
// metrics from a traced run (--trace 1). The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload kv-read --seed 1 --seconds 20 --trace 0
//
// NOTES.md explains the workloads and how the metrics relate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// specPath is BENCHMARK.json, relative to the repository root the
// benchmark runs from.
const specPath = "BENCHMARK.json"

// outDir receives the traced run's profile and span dump.
const outDir = ".bench_build/trace"

// value is one measured metric: its number, unit and the count of
// samples it was computed from.
type value struct {
	V    float64
	Unit string
	N    int
}

// report is what one workload run produces.
type report struct {
	metrics   map[string]value
	attempted int
	failed    int
	problems  []string // output-check failures, first few kept
}

func newReport() *report { return &report{metrics: map[string]value{}} }

// set records one metric.
func (r *report) set(name string, v float64, unit string, n int) {
	r.metrics[name] = value{V: v, Unit: unit, N: n}
}

// zero records metrics a workload has no counterpart for, so a traced
// run still prints every per-layer metric.
func (r *report) zero(names ...string) {
	for _, n := range names {
		r.metrics[n] = value{} // unit filled in from BENCHMARK.json
	}
}

// fail counts one failed operation or check, keeping the first few
// descriptions for the log.
func (r *report) fail(format string, a ...any) {
	r.failed++
	if len(r.problems) < 8 {
		r.problems = append(r.problems, fmt.Sprintf(format, a...))
	}
}

// options is one invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// runners maps each workload name to the function that runs it.
var runners = map[string]func(options) (*report, error){
	"kv-read":      func(o options) (*report, error) { return runKV(kvRead, o) },
	"kv-write-2pc": func(o options) (*report, error) { return runKV(kvWrite2PC, o) },
	"grid-fig6":    runGrid,
}

func main() { os.Exit(run()) }

func run() int {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload name (see BENCHMARK.json)")
	flag.Int64Var(&o.seed, "seed", 42, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 0, "measured seconds (default: run_seconds)")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run printing the per-layer metrics")
	refOut := flag.String("write-ref", "", "regenerate the grid reference file at this path and exit")
	flag.Parse()
	o.trace = traceFlag == 1
	if *refOut != "" {
		if err := writeRef(*refOut); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}

	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	run, ok := runners[o.workload]
	if !ok || !spec.workload(o.workload) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", o.workload)
		return 2
	}
	if o.seconds <= 0 {
		o.seconds = float64(spec.RunSeconds)
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}

	heap := startHeapSampler()
	rep, err := run(o)
	peak := heap.stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rep.set("peak_heap_mb", peak/(1<<20), "MB", heap.samples)

	want := spec.EndToEnd
	if o.trace {
		want = spec.PerLayer
	}
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]map[string]any{}}

	fmt.Printf("workload %s seed %d trace %v\n", o.workload, o.seed, o.trace)
	var missing []string
	for _, m := range want {
		v, ok := rep.metrics[m.Name]
		if !ok || math.IsNaN(v.V) || math.IsInf(v.V, 0) {
			missing = append(missing, m.Name)
			continue
		}
		if v.Unit == "" && v.V == 0 {
			v.Unit = m.Unit
		}
		if v.Unit != m.Unit {
			missing = append(missing, m.Name+" (unit "+v.Unit+")")
			continue
		}
		fmt.Printf("  %-28s %16.6f %-6s n=%d\n", m.Name, v.V, v.Unit, v.N)
		out.Metrics[m.Name] = map[string]any{"value": v.V, "unit": v.Unit}
	}
	printInfo(rep, want)
	fmt.Printf("  attempted %d failed %d (error_frac %.6f)\n", rep.attempted, rep.failed, float64(rep.failed)/float64(max(rep.attempted, 1)))
	for _, p := range rep.problems {
		fmt.Println("  check failed:", p)
	}
	if len(missing) > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: metrics not produced:", missing)
		return 1
	}
	if rep.attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: nothing attempted")
		return 1
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// printInfo prints the measured values BENCHMARK.json does not list
// for this mode (workload-specific figures such as cross_p99_us and
// recover_s), so a reader sees every number the run took.
func printInfo(rep *report, listed []Metric) {
	in := map[string]bool{}
	for _, m := range listed {
		in[m.Name] = true
	}
	var names []string
	for name := range rep.metrics {
		if !in[name] {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return
	}
	sort.Strings(names)
	fmt.Println("  also measured:")
	for _, name := range names {
		v := rep.metrics[name]
		fmt.Printf("    %-26s %16.6f %-6s n=%d\n", name, v.V, v.Unit, v.N)
	}
}

// heapSampler tracks the peak live heap (bytes marked live by the last
// collection) across the run.
type heapSampler struct {
	stopCh  chan struct{}
	done    chan struct{}
	mu      sync.Mutex
	peak    float64
	samples int
}

const heapSampleEvery = 20 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopCh: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			h.sample()
			select {
			case <-h.stopCh:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return
	}
	v := float64(s[0].Value.Uint64())
	h.mu.Lock()
	h.samples++
	if v > h.peak {
		h.peak = v
	}
	h.mu.Unlock()
}

// stop ends sampling (after one last sample) and returns the peak.
func (h *heapSampler) stop() float64 {
	close(h.stopCh)
	<-h.done
	h.sample()
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.peak
}

// allocBytes reads the cumulative heap bytes allocated by the process.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// settle collects garbage so a measured phase starts from a clean heap
// and the previous phase's garbage is not charged to it.
func settle() { runtime.GC() }
