package workload

import (
	"testing"

	"uhtm/internal/signature"
)

// TestSeedSweepParanoid runs the consolidated mix under several seeds
// with ground-truth conflict validation on: any schedule-dependent
// missed conflict or rollback bug panics the run. This is the
// randomized-schedule stress companion to the fixed-seed unit tests.
func TestSeedSweepParanoid(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep skipped in -short mode")
	}
	cfg := tinyConfig()
	cfg.Instances = 2
	cfg.ThreadsPerInstance = 3
	cfg.KeySpace = 64 // contended
	cfg.BatchesPerThread = 4
	for _, seed := range []int64{1, 7, 1234, 98765} {
		c := cfg
		c.Seed = seed
		for _, spec := range []SystemSpec{
			paranoid(LLCBounded()),
			paranoid(UHTM(signature.Bits512, true)),
			paranoid(SignatureOnly(signature.Bits1K)),
			paranoid(Ideal()),
		} {
			r := Run(spec, BenchMixed, c)
			want := uint64(c.Instances * c.ThreadsPerInstance * c.BatchesPerThread)
			if r.Stats.Commits != want {
				t.Errorf("seed=%d %s: commits=%d want %d", seed, spec.Name, r.Stats.Commits, want)
			}
		}
	}
}

// TestAblationsSmoke runs the ablation suite at tiny scale end to end.
func TestAblationsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations skipped in -short mode")
	}
	tbl, rs, err := RunExperiment("ablate", RunOptions{Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 8 {
		t.Fatalf("ablations produced %d runs, want 8", len(rs))
	}
	if len(tbl.Rows) != 8 {
		t.Fatalf("table has %d rows", len(tbl.Rows))
	}
	for _, r := range rs {
		if r.Stats.Commits == 0 {
			t.Errorf("%s: no commits", r.System)
		}
	}
}
