package crash

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"uhtm/internal/core"
	"uhtm/internal/mem"
	"uhtm/internal/sim"
	"uhtm/internal/stats"
	"uhtm/internal/wal"
)

// Hook is what a sweep world calls at every injection point it passes:
// the point's full name (a cluster prefixes its shard, "s<k>.") and the
// sim.Engine.HaltNow of the engine the point fired in.
type Hook func(point string, halt func())

// Target is one subject of a crash sweep: a machine workload
// (Workload.Target) or a cluster of them. Build must return a fresh
// world that calls hook at every injection point and whose run is the
// same on every call, which is what lets an enumeration pass predict
// the injection points of every replay.
type Target struct {
	Name  string
	Seed  int64
	Build func(hook Hook) World
}

// World is one built simulation of a Target.
type World interface {
	// Run executes the world until it completes or the hook halts it,
	// and returns the virtual time and machine counters at the end.
	Run() (sim.Time, stats.Stats)
	// Complete reports, after an uninjected run, whether the world
	// finished all its work (nil) or why not.
	Complete() error
	// Recover crashes the world, runs recovery and checks the recovered
	// state. It returns "" when every invariant holds, else the
	// violation, plus what recovery replayed.
	Recover() (string, wal.ReplayStats)
}

// Workload parameterizes one crash-sweep workload: a deterministic mix
// of durable transactions over shared NVM and DRAM line pools, sized so
// that write sets overflow the (deliberately tiny) cache hierarchy —
// exercising the undo log, the DRAM cache and the slow path — and so
// that overlapping line picks produce conflicts and aborts. The same
// Workload value always produces the same simulation, which is what
// lets an enumeration pass predict the injection points of every replay.
type Workload struct {
	Name            string
	Threads         int
	TxPerThread     int
	NVMLines        int // shared NVM data pool (prepopulated, durable baseline)
	DRAMLines       int // shared DRAM data pool
	NVMWritesPerTx  int
	DRAMWritesPerTx int
	ReadsPerTx      int
	Seed            int64
	// ReclaimMid makes thread 0 run a full log-reclamation pass halfway
	// through its transactions, so the sweep also lands crashes inside
	// ReclaimLogs (in-place image persists, ring reclamation).
	ReclaimMid bool
	// ReserveLogArea is passed to core.Options.ReserveLogArea: bytes
	// withheld from the top of the NVM log area, which shrinks every
	// redo ring (zero keeps the full-size rings).
	ReserveLogArea mem.Addr
}

// SmallWorkload is the exhaustive-sweep shape: every (point, visit)
// pair is injected — a few hundred replays.
func SmallWorkload() Workload {
	return Workload{
		Name:            "crash-small",
		Threads:         2,
		TxPerThread:     5,
		NVMLines:        10,
		DRAMLines:       8,
		NVMWritesPerTx:  4,
		DRAMWritesPerTx: 3,
		ReadsPerTx:      2,
		Seed:            42,
		ReclaimMid:      true,
	}
}

// LargeWorkload is the sampled-sweep shape: tens of thousands of
// injection points, of which a seeded-random subset is injected.
func LargeWorkload() Workload {
	return Workload{
		Name:            "crash-large",
		Threads:         4,
		TxPerThread:     30,
		NVMLines:        64,
		DRAMLines:       48,
		NVMWritesPerTx:  6,
		DRAMWritesPerTx: 4,
		ReadsPerTx:      3,
		Seed:            42,
		ReclaimMid:      true,
	}
}

// RingWorkload is the small workload on redo rings of a few dozen
// records each, with no explicit reclamation pass: every ReclaimLogs it
// sweeps is one a commit triggers by crossing the rings' half-full
// mark — the window of RECOVERY.md §7 bug 1, which the full-size rings
// of the other workloads never reach. Swept exhaustively.
func RingWorkload() Workload {
	w := SmallWorkload()
	w.Name = "crash-ring"
	w.TxPerThread = 8
	w.ReclaimMid = false
	// 8 KiB of NVM log area remain: the checkpoint cell and ring, then
	// two redo rings of 32 records.
	w.ReserveLogArea = mem.LogAreaSize - 8<<10
	return w
}

// geometry shrinks the Table III machine so transactional footprints
// overflow on-chip capacity within a handful of writes.
func (w Workload) geometry() mem.Config {
	cfg := mem.DefaultConfig()
	cfg.Cores = w.Threads
	cfg.L1Size = 8 * mem.LineSize // 8 lines: L1 spills immediately
	cfg.L1Ways = 2
	cfg.LLCSize = 8 * mem.LineSize // 8 lines: LLC evicts live tx lines to undo log / DRAM cache
	cfg.LLCWays = 4
	cfg.DRAMCacheSize = 64 * mem.LineSize
	cfg.DRAMCacheWays = 4
	return cfg
}

// pick chooses a pool index for write i of transaction k on thread t —
// a fixed mixing function, so retried attempts touch the same lines and
// different threads overlap often enough to conflict.
func pick(t, k, i, n int) int {
	return ((t*131+k*17+i*7+(t^k)*3)%n + n) % n
}

// runState is one built simulation plus the ground truth the oracle
// needs: the post-setup durable baseline, every attempt's intended NVM
// writes (keyed by hardware transaction ID), and the IDs of
// transactions whose commit was acknowledged to the workload.
type runState struct {
	w        Workload
	eng      *sim.Engine
	m        *core.Machine
	nvmPool  []mem.Addr
	dramPool []mem.Addr
	baseline map[mem.Addr]mem.Line
	intents  map[uint64]map[mem.Addr]uint64 // txID → final value per NVM line
	acked    []uint64
}

// Target returns the workload as a crash-sweep target.
func (w Workload) Target() Target {
	return Target{Name: w.Name, Seed: w.Seed, Build: func(hook Hook) World { return w.build(hook) }}
}

// build constructs the engine, machine, pools and threads, and installs
// the hook (none when nil). Run the returned state to execute the
// workload.
func (w Workload) build(hook Hook) *runState {
	eng := sim.NewEngine(w.Seed)
	opts := core.DefaultOptions()
	opts.TrackCommits = true
	opts.ReserveLogArea = w.ReserveLogArea
	m := core.NewMachine(eng, w.geometry(), opts)
	if hook != nil {
		halt := eng.HaltNow
		m.SetCrashpoint(func(point string) { hook(point, halt) })
	}
	st := &runState{
		w:       w,
		eng:     eng,
		m:       m,
		intents: make(map[uint64]map[mem.Addr]uint64),
	}
	nvmAl := mem.NewAllocator(mem.NVM)
	dramAl := mem.NewAllocator(mem.DRAM)
	for i := 0; i < w.NVMLines; i++ {
		la := nvmAl.AllocLines(1)
		m.Store().WriteU64(la, 0xA000+uint64(i))
		st.nvmPool = append(st.nvmPool, la)
	}
	for i := 0; i < w.DRAMLines; i++ {
		st.dramPool = append(st.dramPool, dramAl.AllocLines(1))
	}
	// Non-transactional setup is durable before any transaction runs —
	// the formatted-heap state crash recovery falls back to.
	m.Store().PersistLiveNVM()
	st.baseline = Baseline(m)
	for t := 0; t < w.Threads; t++ {
		t := t
		eng.Spawn(fmt.Sprintf("crash-w%d", t), func(th *sim.Thread) {
			w.thread(st, th, t)
		})
	}
	return st
}

// thread is one worker's body: TxPerThread durable transactions, each
// recording its intended writes before committing.
func (w Workload) thread(st *runState, th *sim.Thread, t int) {
	c := st.m.NewCtx(th, 0)
	for k := 0; k < w.TxPerThread; k++ {
		// Three passes, not one: each checkpoint keeps its predecessor
		// as the torn-write fallback and truncates the group before
		// that, so only the third pass actually reclaims checkpoint-ring
		// space — the sweep needs it to land crashes in the ring's own
		// truncation (wal.ckpt.reclaim.ctrl).
		if w.ReclaimMid && t == 0 &&
			(k == w.TxPerThread/4 || k == w.TxPerThread/2 || k == 3*w.TxPerThread/4) {
			st.m.ReclaimLogs()
		}
		var id uint64
		c.Run(func(tx *core.Tx) {
			id = tx.ID()
			writes := make(map[mem.Addr]uint64, w.NVMWritesPerTx)
			dram := func() {
				for i := 0; i < w.DRAMWritesPerTx; i++ {
					la := st.dramPool[pick(t, k, i, len(st.dramPool))]
					tx.WriteU64(la, id<<16|uint64(0x8000+i))
				}
			}
			nvm := func() {
				for i := 0; i < w.ReadsPerTx; i++ {
					tx.ReadU64(st.nvmPool[pick(t, k, i+23, len(st.nvmPool))])
				}
				for i := 0; i < w.NVMWritesPerTx; i++ {
					la := st.nvmPool[pick(t, k, i, len(st.nvmPool))]
					v := id<<16 | uint64(i+1)
					tx.WriteU64(la, v)
					writes[la] = v
				}
			}
			// Even threads write DRAM first, so the later NVM traffic
			// evicts those lines from the tiny LLC while the transaction
			// is live (undo-log wal.undo.* points); odd threads write NVM
			// first, so conflict aborts land after redo state exists
			// (core.abort.mark).
			if t%2 == 0 {
				dram()
				nvm()
			} else {
				nvm()
				dram()
			}
			// Recorded before the commit protocol starts, so a crash
			// anywhere inside commit finds the intent on file.
			st.intents[id] = writes
		})
		st.acked = append(st.acked, id)
	}
}

// Run executes the workload until it completes or the hook halts it.
func (st *runState) Run() (sim.Time, stats.Stats) {
	elapsed := st.eng.Run()
	return elapsed, *st.m.Stats()
}

// Complete reports whether every transaction was acknowledged.
func (st *runState) Complete() error {
	if st.eng.Halted() {
		return errors.New("halted unexpectedly")
	}
	if got, want := len(st.acked), st.w.Threads*st.w.TxPerThread; got != want {
		return fmt.Errorf("acked %d txs, want %d", got, want)
	}
	return nil
}

// Enumerate runs the target once with a counting injector and returns
// the exhaustive injection list plus the per-point visit counts. The
// run must complete (no crash).
func Enumerate(t Target) ([]Injection, map[string]int, error) {
	in := NewCounter()
	w := t.Build(in.Hit)
	w.Run()
	if err := w.Complete(); err != nil {
		return nil, nil, fmt.Errorf("crash: %s enumeration run %v", t.Name, err)
	}
	if len(in.Hits()) == 0 {
		return nil, nil, fmt.Errorf("crash: %s fired no injection points", t.Name)
	}
	return enumerate(in.Hits()), in.Hits(), nil
}

// Sample returns n distinct injections drawn deterministically from
// injs with the given seed (all of them when n >= len(injs)), in
// original order.
func Sample(injs []Injection, n int, seed int64) []Injection {
	if n >= len(injs) {
		out := make([]Injection, len(injs))
		copy(out, injs)
		return out
	}
	rng := rand.New(rand.NewSource(seed))
	idx := rng.Perm(len(injs))[:n]
	sort.Ints(idx)
	out := make([]Injection, 0, n)
	for _, i := range idx {
		out = append(out, injs[i])
	}
	return out
}

// Outcome is the result of one injected crash: where it was injected
// and whether recovery upheld every invariant.
type Outcome struct {
	Workload string
	Point    string
	Visit    int
	Seed     int64
	// Verdict is "ok", or "fail: <detail>" describing the violated
	// invariant.
	Verdict string
	Stats   stats.Stats     // machine counters at the crash
	Elapsed sim.Time        // virtual time of the crash
	Replay  wal.ReplayStats // what recovery replayed
}

// OK reports whether every invariant held.
func (o Outcome) OK() bool { return o.Verdict == "ok" }

// RunInjection replays the target, kills it at the injection, runs
// recovery, and verifies the recovery invariants. It never panics on an
// invariant violation — failures are reported in the Outcome so sweeps
// can tabulate them.
func RunInjection(t Target, inj Injection) Outcome {
	out := Outcome{Workload: t.Name, Point: inj.Point, Visit: inj.Visit, Seed: t.Seed}
	in := Arm(inj)
	w := t.Build(in.Hit)
	out.Elapsed, out.Stats = w.Run()
	if !in.Fired() {
		out.Verdict = fmt.Sprintf("fail: point %s visit %d never reached (saw %d visits)",
			inj.Point, inj.Visit, in.Hits()[inj.Point])
		return out
	}
	in.Disarm()
	detail, replay := w.Recover()
	out.Replay = replay
	if detail == "" {
		out.Verdict = "ok"
	} else {
		out.Verdict = "fail: " + detail
	}
	return out
}

// dataNVM reports whether a line holds NVM *data* (not hardware log
// area) — the address range the oracle compares.
func dataNVM(a mem.Addr) bool {
	return mem.KindOf(a) == mem.NVM && !mem.InLogArea(a)
}

// Recover crashes the machine, recovers it, and checks the recovered
// state. The sweep-only checks use the ground truth the run recorded:
// every acknowledged transaction reached the commit log, every durable
// mid-commit mark belongs to a recorded intent whose values its durable
// images carry, and no DRAM data survives. The image comparison itself
// is VerifyRecovered's committed-prefix oracle. It returns "" when
// every invariant holds, else a description of the violation.
func (st *runState) Recover() (detail string, replay wal.ReplayStats) {
	m := st.m

	// An acknowledged commit always reached the commit log
	// (finishCommit ran before the ack).
	committed := make(map[uint64]bool)
	for _, c := range m.CommitLog() {
		committed[c.ID] = true
	}
	for _, id := range st.acked {
		if !committed[id] {
			return fmt.Sprintf("acked tx %d missing from commit log", id), replay
		}
	}

	// Power failure. Everything below sees only durable state plus the
	// recovery protocol's own effects.
	m.Crash()

	// A durable commit mark above the checkpoint on a transaction that
	// never registered in the commit log is a mid-commit transaction:
	// past its durable mark but suspended before registering. Its
	// durable redo images must be exactly its recorded intent — the
	// oracle below reconstructs its effect from them.
	ckpt := m.Checkpoint()
	mid := make(map[uint64]bool)
	images := make(map[uint64]map[mem.Addr]mem.Line)
	for _, r := range m.DurableRedoRecords() {
		switch r.Type {
		case wal.RecCommit:
			if r.LSN > ckpt && !committed[r.TxID] {
				mid[r.TxID] = true
			}
		case wal.RecWrite:
			if images[r.TxID] == nil {
				images[r.TxID] = make(map[mem.Addr]mem.Line)
			}
			images[r.TxID][r.Addr] = r.Data
		}
	}
	for id := range mid {
		intent, ok := st.intents[id]
		if !ok {
			return fmt.Sprintf("durable commit mark for unknown tx %d", id), replay
		}
		if len(images[id]) != len(intent) {
			return fmt.Sprintf("mid-commit tx %d: %d durable images for %d intended lines", id, len(images[id]), len(intent)), replay
		}
		for la, v := range intent {
			want := st.baseline[la]
			binary.LittleEndian.PutUint64(want[:8], v)
			if got, ok := images[id][la]; !ok || got != want {
				return fmt.Sprintf("mid-commit tx %d: durable image of line %#x is %x, intent %x", id, uint64(la), got, want), replay
			}
		}
	}

	replay = m.Recover().ReplayStats
	if d := VerifyRecovered(m, st.w.Threads, st.baseline); d != "" {
		return d, replay
	}

	// The DRAM side is gone — recovery rebuilds a live image containing
	// nothing but recovered NVM data.
	for a, l := range m.Store().SnapshotLive() {
		if mem.KindOf(a) == mem.DRAM && l != (mem.Line{}) {
			return fmt.Sprintf("DRAM line %#x survived the crash", uint64(a)), replay
		}
	}
	return "", replay
}
