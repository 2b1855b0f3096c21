package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"uhtm/internal/harness"
	"uhtm/internal/mem"
	"uhtm/internal/signature"
	"uhtm/internal/stats"
)

// driverGoldenConfig is the shrunken shape the driver goldens share: a
// 1 MB LLC so the batches below overflow it at test scale, two
// instances of two threads, and no memory apps.
func driverGoldenConfig() Config {
	geo := mem.DefaultConfig()
	geo.LLCSize = 1 << 20
	cfg := DefaultConfig()
	cfg.Geometry = &geo
	cfg.Seed = 7
	cfg.Instances = 2
	cfg.ThreadsPerInstance = 2
	cfg.KeySpace = 512
	cfg.Prepopulate = 256
	cfg.FootprintKB = 256
	cfg.BatchesPerThread = 2
	cfg.MemApps = 0
	return cfg
}

// checkDriverGolden runs bench b under every system at -par 2 and pins
// the rendered table and the JSON Lines records (Wall zeroed) to
// testdata/golden_<name>.{table,jsonl}.
func checkDriverGolden(t *testing.T, name string, b Bench, cfg Config, systems []SystemSpec) {
	t.Helper()
	var specs []harness.Spec[Result]
	for _, s := range systems {
		specs = append(specs, spec(name, s, b, cfg))
	}
	rs := harness.Execute(specs, 2)
	tbl := &stats.Table{Header: []string{"system", "commits", "aborts", "overflowedTx", "elapsed"}}
	var recs bytes.Buffer
	for _, r := range rs {
		tbl.AddRow(r.System, fmt.Sprintf("%d", r.Stats.Commits), fmt.Sprintf("%d", r.Stats.Aborts()),
			fmt.Sprintf("%d", r.Stats.Overflows), r.Elapsed.String())
		r.Wall = 0
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		recs.Write(line)
		recs.WriteByte('\n')
	}
	checkGolden(t, "golden_"+name+".table", []byte(tbl.Format()))
	checkGolden(t, "golden_"+name+".jsonl", recs.Bytes())
}

// TestDriverGoldens pins the drivers the figure goldens do not reach —
// Echo with long-running read-only batches (Fig. 8), Hybrid-Index
// (Fig. 9a) and Dual (Fig. 9b) — on shrunken configurations, so a
// refactor of the shared driver skeleton or the stores shows up as a
// record diff.
func TestDriverGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("driver goldens skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("grid too slow under the race detector (see race_on_test.go)")
	}
	t.Run("fig8", func(t *testing.T) {
		cfg := driverGoldenConfig()
		cfg.ValueSize = 1024
		cfg.FootprintKB = 1
		cfg.BatchesPerThread = 6
		cfg.Prepopulate = 2048
		cfg.KeySpace = 2048
		cfg.LongROEvery = 3
		cfg.LongROBytes = 1536 << 10 // 1.5 MB read-set > the 1 MB LLC
		systems := []SystemSpec{LLCBounded(), UHTM(signature.Bits4K, true), Ideal()}
		checkDriverGolden(t, "fig8", BenchEcho, cfg, systems)
	})
	t.Run("fig9a", func(t *testing.T) {
		checkDriverGolden(t, "fig9a", BenchHybridIndex, driverGoldenConfig(), Fig9Systems())
	})
	t.Run("fig9b", func(t *testing.T) {
		cfg := driverGoldenConfig()
		cfg.ThreadsPerInstance = 4 // two foreground, two background threads
		checkDriverGolden(t, "fig9b", BenchDual, cfg, Fig9Systems())
	})
}
