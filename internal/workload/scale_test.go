package workload

import (
	"encoding/json"
	"strings"
	"testing"
)

// shrinkScaleGrid swaps the scale-experiment grid for a tiny one for
// the duration of a test (the package-level axes describe full-size
// runs: up to 1024 simulated cores per cell).
func shrinkScaleGrid(t *testing.T, cores, shards, domains []int) {
	t.Helper()
	c, s, d := scaleCores, scaleShards, scaleDomains
	scaleCores, scaleShards, scaleDomains = cores, shards, domains
	t.Cleanup(func() { scaleCores, scaleShards, scaleDomains = c, s, d })
}

// TestScaleExperimentDeterministicAcrossPar runs the sharded scale
// experiment through the ordinary registry path at two parallelism
// levels: tables and records (minus host wall time) must match.
func TestScaleExperimentDeterministicAcrossPar(t *testing.T) {
	shrinkScaleGrid(t, []int{8}, []int{1, 2, 4}, []int{1})
	opt := RunOptions{Scale: 0.5, Par: 1}
	tbl1, rs1, err := RunExperiment("scale", opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Par = 8
	tbl8, rs8, err := RunExperiment("scale", opt)
	if err != nil {
		t.Fatal(err)
	}
	if tbl1.Format() != tbl8.Format() {
		t.Fatalf("scale table differs across par:\n-- par1\n%s\n-- par8\n%s", tbl1.Format(), tbl8.Format())
	}
	if len(rs1) != len(rs8) || len(rs1) == 0 {
		t.Fatalf("result counts differ: %d vs %d", len(rs1), len(rs8))
	}
	for i := range rs1 {
		a, b := rs1[i], rs8[i]
		a.Wall, b.Wall = 0, 0
		ja, _ := json.Marshal(a)
		jb, _ := json.Marshal(b)
		if string(ja) != string(jb) {
			t.Errorf("record %d differs across par:\n par1: %s\n par8: %s", i, ja, jb)
		}
	}
}

// TestScalePlanShardRestriction: opt.Shards pins the shard axis to one
// count plus the one-shard baseline the speedup column needs.
func TestScalePlanShardRestriction(t *testing.T) {
	shrinkScaleGrid(t, []int{8}, []int{1, 2, 4, 8}, []int{1})
	specs, _ := scalePlan(RunOptions{Shards: 4})
	if len(specs) != 2 {
		t.Fatalf("got %d specs, want 2 (shards 1 and 4)", len(specs))
	}
	full, _ := scalePlan(RunOptions{})
	if len(full) != 4 {
		t.Fatalf("got %d specs on the full axis, want 4", len(full))
	}
}

// TestScaleRecordsCarryShardFields: the scale experiment's JSON records
// round-trip the shard extension fields, commit cross-shard work, and
// the fold reports a speedup column against the one-shard baseline.
func TestScaleRecordsCarryShardFields(t *testing.T) {
	shrinkScaleGrid(t, []int{8}, []int{1, 4}, []int{1})
	tbl, rs, err := RunExperiment("scale", RunOptions{Scale: 0.5, Par: 4})
	if err != nil {
		t.Fatal(err)
	}
	var sawCross bool
	for _, r := range rs {
		if r.Shards == 0 {
			t.Fatalf("record %s/%s has no shard count", r.System, r.Bench)
		}
		if r.Stats.Commits == 0 {
			t.Fatalf("record %s/%s shards=%d has no local commits", r.System, r.Bench, r.Shards)
		}
		if r.Shards > 1 && r.CrossCommits > 0 {
			sawCross = true
		}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		var back Result
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if back.Shards != r.Shards || back.CrossCommits != r.CrossCommits || back.CrossAborts != r.CrossAborts {
			t.Errorf("shard fields lost in JSON round-trip: %+v vs %+v", back, r)
		}
	}
	if !sawCross {
		t.Error("no multi-shard record committed cross-shard transactions")
	}
	if !strings.Contains(tbl.Format(), "Speedup") || !strings.Contains(tbl.Format(), "1.00x") {
		t.Errorf("fold table lacks the speedup baseline:\n%s", tbl.Format())
	}
}

// TestScaleGolden pins the shrunken scale grid (8 cores, shards 1/2/4,
// one conflict domain, scale 0.5) to goldens captured before the
// cross-shard commit was unified: the wave driver's per-shard commit
// and abort counts and virtual elapsed times must not move when the
// 2PC code is restructured.
func TestScaleGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("scale grid skipped in -short mode")
	}
	shrinkScaleGrid(t, []int{8}, []int{1, 2, 4}, []int{1})
	tbl, rs, err := RunExperiment("scale", RunOptions{Scale: 0.5, Par: 2})
	if err != nil {
		t.Fatal(err)
	}
	var recs []byte
	for _, r := range rs {
		r.Wall = 0
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(append(recs, b...), '\n')
	}
	checkGolden(t, "golden_scale.table", []byte(tbl.Format()))
	checkGolden(t, "golden_scale.jsonl", recs)
}
