// Package bench defines the shared benchmark suite: one spec per
// paper figure (regenerating its grid at a reduced scale) plus
// micro-benchmarks of the core machinery. The same specs back both
// `go test -bench` (via thin wrappers in bench_test.go) and the
// `uhtmsim bench` subcommand, which runs the suite with
// testing.Benchmark and emits one machine-readable BENCH_<n>.json
// record per spec (ns/op, allocs/op, bytes/op and the headline custom
// metrics reported via b.ReportMetric).
//
// Figure specs fail loudly — a missing grid cell or a zero-throughput
// baseline is a b.Fatalf, never a silently absent metric — and report
// their metrics on every iteration, so multi-iteration runs cannot
// carry a stale first-iteration value.
package bench

import (
	"strconv"
	"testing"

	"uhtm/internal/core"
	"uhtm/internal/mem"
	"uhtm/internal/shard"
	"uhtm/internal/signature"
	"uhtm/internal/sim"
	"uhtm/internal/stats"
	"uhtm/internal/wal"
	"uhtm/internal/workload"
)

// Spec is one benchmark of the suite.
type Spec struct {
	Name string
	// Figure marks full experiment regenerations (minutes-scale, one
	// iteration) as opposed to micro-benchmarks (ns/µs-scale, ramped).
	Figure bool
	Fn     func(b *testing.B)
}

// Specs lists the suite in its canonical order (the order BENCH_<n>.json
// records appear in).
func Specs() []Spec {
	return []Spec{
		{"Fig2", true, Fig2},
		{"Fig6", true, Fig6},
		{"Fig7", true, Fig7},
		{"Fig8", true, Fig8},
		{"Fig9a", true, Fig9a},
		{"Fig9b", true, Fig9b},
		{"Fig10", true, Fig10},
		{"Ablations", true, Ablations},
		{"ShardCross", false, ShardCross},
		{"TxSmallCommit", false, TxSmallCommit},
		{"SignatureInsert", false, SignatureInsert},
		{"SignatureCheck", false, SignatureCheck},
		{"RedoLogAppend", false, RedoLogAppend},
		{"LogReplay", false, LogReplay},
		{"RecoveryReplay", false, RecoveryReplay},
		{"SimEngineYield", false, SimEngineYield},
	}
}

// mustResult picks the result matching system and bench, failing the
// benchmark loudly when the grid cell is missing — a silent nil here
// would drop the headline metric without failing anything.
func mustResult(b *testing.B, rs []workload.Result, system string, bench workload.Bench) *workload.Result {
	b.Helper()
	for i := range rs {
		if rs[i].System == system && rs[i].Bench == bench {
			return &rs[i]
		}
	}
	b.Fatalf("no result for system %q bench %q in %d-cell grid", system, bench, len(rs))
	return nil
}

// experiment regenerates one registered experiment at the given scale,
// failing the benchmark if it cannot run.
func experiment(b *testing.B, name string, scale float64) (*stats.Table, []workload.Result) {
	b.Helper()
	tbl, rs, err := workload.RunExperiment(name, workload.RunOptions{Scale: scale})
	if err != nil {
		b.Fatal(err)
	}
	return tbl, rs
}

// Fig2 regenerates Figure 2 (LLC-Bounded vs Ideal) and reports the
// SkipList slowdown ratio.
func Fig2(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, rs := experiment(b, "fig2", 0.25)
		bounded := mustResult(b, rs, "LLC-Bounded", workload.BenchSkipList)
		ideal := mustResult(b, rs, "Ideal", workload.BenchSkipList)
		if bounded.Throughput() <= 0 {
			b.Fatalf("LLC-Bounded SkipList throughput is %v, want > 0", bounded.Throughput())
		}
		b.ReportMetric(ideal.Throughput()/bounded.Throughput(), "skiplist-slowdown-x")
	}
}

// Fig6 regenerates Figure 6 (all systems, PMDK + Echo) and reports
// UHTM 4k_opt's normalized throughput on SkipList.
func Fig6(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, rs := experiment(b, "fig6", 0.125)
		base := mustResult(b, rs, "LLC-Bounded", workload.BenchSkipList)
		uhtm := mustResult(b, rs, "4k_opt", workload.BenchSkipList)
		if base.Throughput() <= 0 {
			b.Fatalf("LLC-Bounded SkipList throughput is %v, want > 0", base.Throughput())
		}
		b.ReportMetric(uhtm.Throughput()/base.Throughput(), "skiplist-4kopt-norm")
	}
}

// Fig7 regenerates Figure 7 (abort-rate decomposition) and reports the
// 4k_opt abort rate at the first footprint.
func Fig7(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, rs := experiment(b, "fig7", 0.125)
		found := false
		for _, r := range rs {
			if r.System == "4k_opt" {
				b.ReportMetric(100*r.Stats.AbortRate(), "4kopt-abort-%")
				found = true
				break
			}
		}
		if !found {
			b.Fatalf("no 4k_opt result in %d-cell fig7 grid", len(rs))
		}
	}
}

// Fig8 regenerates Figure 8 (long-running read-only transactions) and
// reports UHTM's speedup over the bounded baseline at the first
// fraction.
func Fig8(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, rs := experiment(b, "fig8", 0.125)
		if len(rs) < 2 {
			b.Fatalf("fig8 grid has %d results, want >= 2", len(rs))
		}
		if rs[0].Throughput() <= 0 {
			b.Fatalf("fig8 baseline throughput is %v, want > 0", rs[0].Throughput())
		}
		b.ReportMetric(rs[1].Throughput()/rs[0].Throughput(), "uhtm-speedup-x")
	}
}

// Fig9a regenerates Figure 9a (Hybrid-Index store) and reports the
// isolation optimization's throughput gain at the 512-bit signature.
func Fig9a(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, rs := experiment(b, "fig9a", 0.25)
		var sig, opt float64
		for _, r := range rs {
			if r.System == "512_sig" && sig == 0 {
				sig = r.Throughput()
			}
			if r.System == "512_opt" && opt == 0 {
				opt = r.Throughput()
			}
		}
		if sig <= 0 {
			b.Fatalf("no positive 512_sig throughput in %d-cell fig9a grid", len(rs))
		}
		b.ReportMetric(100*(opt-sig)/sig, "opt-gain-%")
	}
}

// Fig9b regenerates Figure 9b (Dual store).
func Fig9b(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, rs := experiment(b, "fig9b", 0.25)
		if len(rs) == 0 {
			b.Fatal("fig9b produced no results")
		}
	}
}

// Fig10 regenerates Figure 10 (undo vs redo DRAM logging) and reports
// the undo/redo throughput ratio at the largest footprint, parsed from
// the rendered table (column "undo/redo" of the last row).
func Fig10(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbl, _ := experiment(b, "fig10", 0.25)
		if tbl == nil || len(tbl.Rows) == 0 {
			b.Fatal("fig10 produced an empty table")
		}
		last := tbl.Rows[len(tbl.Rows)-1]
		if len(last) < 4 {
			b.Fatalf("fig10 row has %d columns, want >= 4", len(last))
		}
		ratio, err := strconv.ParseFloat(last[3], 64)
		if err != nil {
			b.Fatalf("fig10 undo/redo cell %q is not a number: %v", last[3], err)
		}
		b.ReportMetric(ratio, "undo-redo-x")
	}
}

// Ablations regenerates the design-choice ablation table.
func Ablations(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbl, rs := experiment(b, "ablate", 0.25)
		if tbl == nil || len(rs) == 0 {
			b.Fatal("ablations produced no results")
		}
	}
}

// --- Micro-benchmarks of the substrate ---

// ShardCross measures a small sharded cluster end to end — per-shard
// local batches plus cross-shard 2PC waves (prepare, decide, apply,
// reclaim, resolve) — and reports the cross-shard commit count per
// iteration. The count is a pure function of the configuration, so
// unlike ns/op it is machine-independent and gateable in CI: a change
// that silently stops admitting (or stops committing) cross-shard
// transactions moves it.
func ShardCross(b *testing.B) {
	cfg := shard.SweepConfig()
	cfg.Trace = false
	b.ReportAllocs()
	b.ResetTimer()
	var cross uint64
	for i := 0; i < b.N; i++ {
		c := shard.New(cfg)
		res := c.Run()
		if res.Halted {
			b.Fatal("uninjected cluster run halted")
		}
		if res.CrossCommits == 0 {
			b.Fatalf("no cross-shard commits (aborts=%d)", res.CrossAborts)
		}
		cross = res.CrossCommits
	}
	b.ReportMetric(float64(cross), "cross-shard-commits/op")
}

// TxSmallCommit measures a minimal durable transaction (one NVM line)
// end to end through the machine.
func TxSmallCommit(b *testing.B) {
	eng := sim.NewEngine(1)
	opts := core.DefaultOptions()
	opts.Paranoid = false
	mc := mem.DefaultConfig()
	mc.Cores = 1
	m := core.NewMachine(eng, mc, opts)
	al := mem.NewAllocator(mem.NVM)
	a := al.AllocLines(1)
	b.ReportAllocs()
	b.ResetTimer()
	eng.Spawn("bench", func(th *sim.Thread) {
		c := m.NewCtx(th, 0)
		for i := 0; i < b.N; i++ {
			c.Run(func(tx *core.Tx) {
				tx.WriteU64(a, uint64(i))
			})
		}
	})
	eng.Run()
	// Goroutine handoffs per transaction: machine-independent, so unlike
	// ns/op it is gateable in CI. The single-thread engine should elide
	// essentially every dispatch via the Sync fast path.
	b.ReportMetric(float64(eng.Dispatches())/float64(b.N), "sched-handoffs/op")
}

// SignatureInsert measures Bloom-filter insertion.
func SignatureInsert(b *testing.B) {
	f := signature.NewFilter(signature.Bits4K)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Insert(mem.Addr(i) * mem.LineSize)
	}
}

// SignatureCheck measures a signature probe against a half-full filter.
func SignatureCheck(b *testing.B) {
	p := signature.NewPair(signature.Bits4K)
	for i := 0; i < 400; i++ {
		p.AddWrite(mem.Addr(i) * mem.LineSize)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.CheckWrite(mem.Addr(i) * mem.LineSize)
	}
}

// RedoLogAppend measures hardware redo-log appends into simulated NVM.
func RedoLogAppend(b *testing.B) {
	s := mem.NewStore(mem.DefaultConfig())
	l := wal.NewLog(s, mem.NVMLogBase, 32<<20, true)
	var data mem.Line
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Append(wal.Record{Type: wal.RecWrite, TxID: 1, Addr: mem.NVMBase, Data: data})
		if l.Len() > l.Slots()/2 {
			l.Reclaim(l.Head())
		}
	}
}

// LogReplay measures crash recovery over a populated log.
func LogReplay(b *testing.B) {
	s := mem.NewStore(mem.DefaultConfig())
	l := wal.NewLog(s, mem.NVMLogBase, 32<<20, true)
	var data mem.Line
	for tx := uint64(1); tx <= 100; tx++ {
		for j := 0; j < 16; j++ {
			l.Append(wal.Record{Type: wal.RecWrite, TxID: tx, Addr: mem.NVMBase + mem.Addr(j)*64, Data: data})
		}
		l.Append(wal.Record{Type: wal.RecCommit, TxID: tx, LSN: tx})
	}
	s.Crash()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Replay()
	}
}

// RecoveryReplay measures machine crash recovery end to end over a
// part-checkpointed redo log: a fixed single-core load with one fuzzy
// checkpoint partway leaves a residual committed suffix on the ring;
// each iteration crashes the machine and runs the timed recovery pass.
// Replay is non-destructive (the ring and the checkpoint cell survive
// it), so iterations are identical. The replayed-records count is a
// pure function of the load and the checkpoint placement — machine-
// independent and gateable in CI: a checkpoint that stops filtering,
// or a replay that stops applying, moves it.
func RecoveryReplay(b *testing.B) {
	const txs = 64
	const writesPerTx = 4
	const poolLines = 8
	eng := sim.NewEngine(1)
	opts := core.DefaultOptions()
	opts.Paranoid = false
	mc := mem.DefaultConfig()
	mc.Cores = 1
	m := core.NewMachine(eng, mc, opts)
	al := mem.NewAllocator(mem.NVM)
	pool := al.AllocLines(poolLines)
	eng.Spawn("load", func(th *sim.Thread) {
		c := m.NewCtx(th, 0)
		for k := 0; k < txs; k++ {
			k := k
			c.Run(func(tx *core.Tx) {
				for w := 0; w < writesPerTx; w++ {
					line := pool + mem.Addr((k*writesPerTx+w)%poolLines)*mem.LineSize
					tx.WriteU64(line, uint64(k))
				}
			})
			if k == txs/2 {
				m.ReclaimLogs()
			}
		}
	})
	eng.Run()
	b.ReportAllocs()
	b.ResetTimer()
	var applied int
	for i := 0; i < b.N; i++ {
		m.Crash()
		st := m.Recover()
		if st.AppliedLines == 0 || st.CheckpointLSN == 0 {
			b.Fatalf("recovery applied %d lines against checkpoint LSN %d, want both > 0",
				st.AppliedLines, st.CheckpointLSN)
		}
		applied = st.AppliedLines
	}
	b.ReportMetric(float64(applied), "recovery-replayed/op")
}

// SimEngineYield measures the scheduler handoff cost — the simulator's
// fundamental overhead per memory access.
func SimEngineYield(b *testing.B) {
	eng := sim.NewEngine(1)
	eng.Spawn("spin", func(th *sim.Thread) {
		for i := 0; i < b.N; i++ {
			th.Sync()
			th.Advance(sim.Nanosecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run()
	b.ReportMetric(float64(eng.Dispatches())/float64(b.N), "sched-handoffs/op")
}
