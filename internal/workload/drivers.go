package workload

import (
	"fmt"
	"math/rand"
	"time"

	"uhtm/internal/core"
	"uhtm/internal/kv"
	"uhtm/internal/mem"
	"uhtm/internal/sim"
	"uhtm/internal/stats"
	"uhtm/internal/trace"
	"uhtm/internal/txds"
)

// Bench names a benchmark family from Table IV.
type Bench string

// The benchmark families of Table IV.
const (
	BenchHashMap     Bench = "HashMap"
	BenchBTree       Bench = "B-Tree"
	BenchRBTree      Bench = "RB-Tree"
	BenchSkipList    Bench = "SkipList"
	BenchEcho        Bench = "Echo"
	BenchHybridIndex Bench = "Hybrid-Index"
	BenchDual        Bench = "Dual"
)

// PMDKBenches lists the four micro-benchmark structures.
func PMDKBenches() []Bench {
	return []Bench{BenchHashMap, BenchBTree, BenchRBTree, BenchSkipList}
}

// Config parameterizes one run.
type Config struct {
	Seed int64

	Instances          int // consolidated benchmark copies (one domain each)
	ThreadsPerInstance int

	ValueSize        int // bytes per value
	FootprintKB      int // per-transaction write footprint
	BatchesPerThread int // transactions per thread
	KeySpace         int // keys per instance
	Prepopulate      int // keys inserted before measurement
	PrepopValueSize  int // value size used during prepopulation (0 = ValueSize)

	Persistent bool // data in NVM (durable txs) vs DRAM (volatile txs)

	MemApps      int      // LLC-hungry background threads (own domains)
	MemAppWindow int      // bytes each sweeps over
	MemAppCost   sim.Time // per-line streaming cost (bandwidth model)

	// Long-running read-only transactions (Fig. 8): every LongROEvery-th
	// operation on a thread is a read-only batch of LongROBytes instead
	// of a put batch. Zero disables.
	LongROEvery int
	LongROBytes int

	// Geometry overrides the Table III machine configuration when
	// non-nil (tests use a shrunken hierarchy). Cores is always derived
	// from the thread count.
	Geometry *mem.Config

	// Trace attaches an event recorder to the run's engine; the full
	// stream comes back in Result.TraceEvents.
	Trace bool
}

// DefaultConfig is the Figure 6 shape: four instances of four threads,
// 1 KB values, 100 KB transactions, two memory-intensive apps.
func DefaultConfig() Config {
	return Config{
		Seed:               42,
		Instances:          4,
		ThreadsPerInstance: 4,
		ValueSize:          1024,
		FootprintKB:        100,
		BatchesPerThread:   8,
		KeySpace:           32 << 10, // large enough that true conflicts are rare
		Prepopulate:        4 << 10,
		Persistent:         true,
		MemApps:            2,
		MemAppWindow:       32 << 20,
		MemAppCost:         120 * sim.Picosecond,
	}
}

// Result carries one (system, benchmark) measurement. Experiment and
// Wall are filled in by the harness plan layer (see plan.go); the rest
// by the benchmark drivers.
type Result struct {
	Experiment  string
	System      string
	Bench       Bench
	FootprintKB int
	Seed        int64
	Stats       stats.Stats
	Elapsed     sim.Time      // simulated wall-clock of the run
	Wall        time.Duration // host wall-clock spent simulating

	// TraceEvents is the run's full event stream when Config.Trace was
	// set, nil otherwise. It is deliberately absent from the JSON record
	// (see resultJSON): traces go to their own file in Chrome format.
	TraceEvents []trace.Event

	// Crash-sweep runs only (see RunCrashSweep): the injected crash
	// point, its 1-based visit index, and the recovery verdict ("ok" or
	// "fail: <violated invariant>"). Empty for experiment runs.
	Point   string
	Visit   int
	Verdict string

	// Sharded scale-out runs only (experiment "scale"): the shard count
	// of the cluster and its cross-shard 2PC commit/abort totals. Stats
	// counts local (single-shard) transactions.
	Shards       int
	CrossCommits uint64
	CrossAborts  uint64

	// Recovery runs only (experiment "recovery"): what the post-crash
	// recovery pass examined and applied, and its modeled per-phase
	// simulated latencies (see core.RecoveryStats). All deterministic;
	// the host time of the pass folds into Wall.
	RecoveryScanned   int
	RecoveryApplied   int
	RecoveryScanPS    sim.Time
	RecoveryReplayPS  sim.Time
	RecoveryPersistPS sim.Time
}

// Throughput returns committed transactions per simulated second.
func (r Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Stats.Commits) / r.Elapsed.Seconds()
}

// opsPerBatch converts the footprint knob into puts per transaction.
func (c Config) opsPerBatch() int {
	n := c.FootprintKB * 1024 / c.ValueSize
	if n < 1 {
		n = 1
	}
	return n
}

// arenasFor carves per-instance memory arenas: consolidated benchmarks
// model separate processes, so their heaps must not share cache lines
// (false line sharing across conflict domains would be both unrealistic
// and — for two serialized slow-path transactions — unresolvable). The
// DRAM split leaves room at the top for the memory-app sweep windows.
func arenasFor(cfg Config) (dram, nvm []*mem.Allocator) {
	reserve := mem.Addr(cfg.MemApps*cfg.MemAppWindow) + (64 << 20)
	return mem.SplitRegion(mem.DRAM, cfg.Instances, reserve),
		mem.SplitRegion(mem.NVM, cfg.Instances, 0)
}

// dataArenas returns the arena set matching cfg.Persistent.
func dataArenas(cfg Config) []*mem.Allocator {
	d, n := arenasFor(cfg)
	if cfg.Persistent {
		return n
	}
	return d
}

// dsKV is the common surface of the four PMDK structures.
type dsKV interface {
	Put(m txds.Mem, k uint64, v []byte)
	Get(m txds.Mem, k uint64) ([]byte, bool)
}

// hashBuckets sizes a hash table so chains stay at one or two nodes —
// the short-latency point lookup that keeps the PMDK hashmap benchmark
// out of capacity trouble in the paper.
func hashBuckets(keySpace int) int {
	n := 1
	for n < keySpace/2 {
		n <<= 1
	}
	if n < 64 {
		n = 64
	}
	return n
}

func makeDS(b Bench, setup txds.Mem, al *mem.Allocator, keySpace int) dsKV {
	switch b {
	case BenchHashMap:
		return txds.NewHashMap(setup, al, hashBuckets(keySpace))
	case BenchBTree:
		return txds.NewBTree(setup, al)
	case BenchRBTree:
		return txds.NewRBTree(setup, al)
	case BenchSkipList:
		return txds.NewSkipList(setup, al)
	default:
		panic(fmt.Sprintf("workload: %s is not a PMDK structure", b))
	}
}

// defaultGeometry returns the Table III machine configuration.
func defaultGeometry() mem.Config { return mem.DefaultConfig() }

// valueFor builds a deterministic value payload.
func valueFor(size int, k uint64) []byte {
	v := make([]byte, size)
	for i := range v {
		v[i] = byte(k + uint64(i))
	}
	return v
}

// prepopulate hands put keys 1..Prepopulate with their deterministic
// prepopulation values, for set-up writes outside the measured run.
func (c Config) prepopulate(put func(k uint64, v []byte)) {
	size := c.PrepopValueSize
	if size <= 0 {
		size = c.ValueSize
	}
	for k := 1; k <= c.Prepopulate; k++ {
		put(uint64(k), valueFor(size, uint64(k)))
	}
}

// randomBatch draws n keys uniformly from the key space, each with its
// deterministic ValueSize-byte value.
func (c Config) randomBatch(rng *rand.Rand, n int) []kv.KV {
	batch := make([]kv.KV, n)
	for i := range batch {
		k := uint64(rng.Intn(c.KeySpace)) + 1
		batch[i] = kv.KV{Key: k, Val: valueFor(c.ValueSize, k)}
	}
	return batch
}

// putBatch performs one transaction of puts. HashMaps take the
// copy-on-write path of PMDK's hashmap example: values materialize
// outside the transaction (private until published) and only the
// pointer splice is transactional, so hashmap transactions stay small.
// The tree structures keep data inline (PMDK's btree/rbtree examples
// store items in nodes), so the whole value is transactional state.
func putBatch(c *core.Ctx, ds dsKV, batch []kv.KV) {
	if h, ok := ds.(*txds.HashMap); ok {
		refs := make([]mem.Addr, len(batch))
		nt := c.NT()
		for i, p := range batch {
			refs[i] = txds.BuildValue(nt, h.Allocator(), p.Val)
		}
		c.Run(func(tx *core.Tx) {
			for i, p := range batch {
				h.PutRef(tx, p.Key, refs[i])
			}
		})
		return
	}
	c.Run(func(tx *core.Tx) {
		for _, p := range batch {
			ds.Put(tx, p.Key, p.Val)
		}
	})
}

// benchRun is the skeleton every driver shares: one engine+machine with
// a core per benchmark thread and memory app, benchmark threads spawned
// in the driver's order (thread IDs break scheduler ties, so the order
// is part of the result), and memory apps that run until the last
// benchmark thread finishes.
type benchRun struct {
	spec      SystemSpec
	cfg       Config
	eng       *sim.Engine
	m         *core.Machine
	threads   []*sim.Thread
	remaining int  // benchmark threads still running
	done      bool // the last benchmark thread finished: memory apps stop
}

// newBenchRun builds the run's engine and machine: the Table III
// geometry (or cfg.Geometry) with one core per thread, optionally
// traced.
func newBenchRun(spec SystemSpec, cfg Config) *benchRun {
	mc := defaultGeometry()
	if cfg.Geometry != nil {
		mc = *cfg.Geometry
	}
	mc.Cores = cfg.Instances*cfg.ThreadsPerInstance + cfg.MemApps
	eng := sim.NewEngine(cfg.Seed)
	if cfg.Trace {
		eng.SetTracer(trace.NewRecorder())
	}
	return &benchRun{
		spec:      spec,
		cfg:       cfg,
		eng:       eng,
		m:         core.NewMachine(eng, mc, spec.Opts),
		remaining: cfg.Instances * cfg.ThreadsPerInstance,
	}
}

// spawn starts benchmark thread t of instance inst, in the instance's
// conflict domain and with its RNG seeded Seed+inst*100+t.
func (r *benchRun) spawn(name string, inst, t int, body func(c *core.Ctx, rng *rand.Rand)) {
	th := r.eng.Spawn(name, func(th *sim.Thread) {
		body(r.m.NewCtx(th, inst), rand.New(rand.NewSource(r.cfg.Seed+int64(inst*100+t))))
		r.remaining--
		r.done = r.remaining == 0
	})
	r.threads = append(r.threads, th)
}

// finish starts the memory apps, runs the engine to completion, and
// aggregates the instances' domain stats, with the slowest benchmark
// thread's clock as the elapsed time.
//
// Each memory app is an LLC-hungry background application sweeping
// random lines of a private DRAM window non-transactionally, evicting
// everyone else's LLC lines along the way (Section III-C's graph500
// observation). The windows are carved from the top of usable DRAM
// (just below the log area), far above the benchmark arenas, and each
// app has its own domain past the instances'.
func (r *benchRun) finish(b Bench) Result {
	cfg := r.cfg
	cost := cfg.MemAppCost
	if cost <= 0 {
		cost = 1500 * sim.Picosecond
	}
	for app := 0; app < cfg.MemApps; app++ {
		r.eng.Spawn(fmt.Sprintf("memapp%d", app), func(th *sim.Thread) {
			c := r.m.NewCtx(th, cfg.Instances+app)
			rng := rand.New(rand.NewSource(cfg.Seed + int64(1000+app)))
			base := mem.DRAMLogBase - mem.Addr((app+1)*cfg.MemAppWindow)
			for !r.done {
				c.PolluteLLC(base, cfg.MemAppWindow, 4096, cost, rng)
			}
		})
	}
	r.eng.Run()

	var agg stats.Stats
	for d := 0; d < cfg.Instances; d++ {
		agg.Add(r.m.DomainStats(d))
	}
	for _, th := range r.threads {
		agg.Elapsed = max(agg.Elapsed, th.Clock())
	}
	return Result{
		System:      r.spec.Name,
		Bench:       b,
		FootprintKB: cfg.FootprintKB,
		Seed:        cfg.Seed,
		Stats:       agg,
		Elapsed:     agg.Elapsed,
		TraceEvents: r.m.TraceEvents(),
	}
}

// idle backs a polling thread off for 5 µs of simulated time.
func idle(c *core.Ctx) {
	c.Thread().Advance(5 * sim.Microsecond)
	c.Thread().Sync()
}

// BenchMixed consolidates one instance of each PMDK structure — the
// Figure 7 configuration ("we consolidated four benchmarks with four
// threads").
const BenchMixed Bench = "Mixed"

// runPMDK runs the consolidated PMDK micro-benchmark: cfg.Instances
// copies of structure b (each its own conflict domain and key space;
// for BenchMixed, instance i hosts PMDK structure i mod 4),
// cfg.ThreadsPerInstance threads per copy doing batched puts of
// cfg.FootprintKB per transaction, plus memory-intensive apps.
func runPMDK(spec SystemSpec, b Bench, cfg Config) Result {
	r := newBenchRun(spec, cfg)
	st := r.m.Store()
	arenas := dataArenas(cfg)
	ops := cfg.opsPerBatch()
	prefix := string(b)
	for inst := 0; inst < cfg.Instances; inst++ {
		sb := b
		if b == BenchMixed {
			sb, prefix = PMDKBenches()[inst%4], "mix"
		}
		// Prepopulated outside the measured run.
		ds := makeDS(sb, st, arenas[inst], cfg.KeySpace)
		cfg.prepopulate(func(k uint64, v []byte) { ds.Put(st, k, v) })
		for t := 0; t < cfg.ThreadsPerInstance; t++ {
			r.spawn(fmt.Sprintf("%s%d.%d", prefix, inst, t), inst, t, func(c *core.Ctx, rng *rand.Rand) {
				for batch := 0; batch < cfg.BatchesPerThread; batch++ {
					putBatch(c, ds, cfg.randomBatch(rng, ops))
				}
			})
		}
	}
	return r.finish(b)
}

// runEcho runs consolidated Echo instances: one master + N-1 clients per
// instance; clients batch updates through rings, the master applies each
// drained batch in one durable transaction.
func runEcho(spec SystemSpec, cfg Config) Result {
	r := newBenchRun(spec, cfg)
	st := r.m.Store()
	dArenas, nArenas := arenasFor(cfg)
	ops := cfg.opsPerBatch()
	clients := cfg.ThreadsPerInstance - 1
	for inst := 0; inst < cfg.Instances; inst++ {
		e := kv.NewEcho(st, dArenas[inst], nArenas[inst], hashBuckets(cfg.KeySpace), clients, 4*ops, cfg.ValueSize)
		cfg.prepopulate(func(k uint64, v []byte) { e.Table.Put(st, k, v) })
		clientsLeft := clients
		for cl := 0; cl < clients; cl++ {
			r.spawn(fmt.Sprintf("echo%d.c%d", inst, cl), inst, cl, func(c *core.Ctx, rng *rand.Rand) {
				nt := c.NT()
				for batch := 0; batch < cfg.BatchesPerThread; batch++ {
					for _, p := range cfg.randomBatch(rng, ops) {
						for !e.Rings[cl].TryPush(nt, p) {
							idle(c)
						}
					}
				}
				clientsLeft--
			})
		}
		r.spawn(fmt.Sprintf("echo%d.m", inst), inst, clients, func(c *core.Ctx, _ *rand.Rand) {
			for {
				total := 0
				for cl := 0; cl < clients; cl++ {
					total += e.MasterStep(c, cl, ops)
				}
				if total == 0 {
					if clientsLeft == 0 && ringsEmpty(e, c) {
						return
					}
					idle(c)
				}
			}
		})
	}
	return r.finish(BenchEcho)
}

func ringsEmpty(e *kv.Echo, c *core.Ctx) bool {
	nt := c.NT()
	for _, r := range e.Rings {
		if r.Len(nt) > 0 {
			return false
		}
	}
	return true
}

// runEchoLongRO is the Figure 8 workload: one Echo table, every thread
// issuing single-put transactions (1 KB values), with every
// LongROEvery-th operation replaced by a long-running read-only get
// batch of LongROBytes. The threads of all instances form one
// application in one conflict domain.
func runEchoLongRO(spec SystemSpec, cfg Config) Result {
	cfg.ThreadsPerInstance *= cfg.Instances
	cfg.Instances = 1
	r := newBenchRun(spec, cfg)
	st := r.m.Store()
	e := kv.NewEcho(st, mem.NewAllocator(mem.DRAM), mem.NewAllocator(mem.NVM), 1<<15, 1, 8, cfg.ValueSize)
	cfg.prepopulate(func(k uint64, v []byte) { e.Table.Put(st, k, v) })
	roKeys := cfg.LongROBytes / cfg.ValueSize
	for t := 0; t < cfg.ThreadsPerInstance; t++ {
		r.spawn(fmt.Sprintf("echoLR.%d", t), 0, t, func(c *core.Ctx, rng *rand.Rand) {
			for op := 0; op < cfg.BatchesPerThread; op++ {
				if cfg.LongROEvery > 0 && op%cfg.LongROEvery == cfg.LongROEvery-1 {
					// A contiguous slice of the keyspace at a random
					// offset: the read-set is exactly LongROBytes of
					// distinct values.
					start := rng.Intn(cfg.Prepopulate)
					keys := make([]uint64, roKeys)
					for i := range keys {
						keys[i] = uint64((start+i)%cfg.Prepopulate) + 1
					}
					e.ReadOnlyBatch(c, keys)
					continue
				}
				p := cfg.randomBatch(rng, 1)[0]
				c.Run(func(tx *core.Tx) {
					e.Table.Put(tx, p.Key, p.Val)
				})
			}
		})
	}
	return r.finish(BenchEcho)
}

// runHybridIndex is the Figure 9a workload: consolidated Hybrid-Index
// stores, threads inserting batches that touch the DRAM B-Tree and the
// NVM HashMap in one transaction.
func runHybridIndex(spec SystemSpec, cfg Config) Result {
	r := newBenchRun(spec, cfg)
	st := r.m.Store()
	dArenas, nArenas := arenasFor(cfg)
	ops := cfg.opsPerBatch()
	for inst := 0; inst < cfg.Instances; inst++ {
		h := kv.NewHybridIndex(st, dArenas[inst], nArenas[inst], hashBuckets(cfg.KeySpace), cfg.ThreadsPerInstance)
		for _, p := range h.Parts {
			cfg.prepopulate(func(k uint64, v []byte) { p.Put(st, k, v) })
		}
		for t := 0; t < cfg.ThreadsPerInstance; t++ {
			r.spawn(fmt.Sprintf("hikv%d.%d", inst, t), inst, t, func(c *core.Ctx, rng *rand.Rand) {
				for batch := 0; batch < cfg.BatchesPerThread; batch++ {
					h.PutBatch(c, t, cfg.randomBatch(rng, ops))
				}
			})
		}
	}
	return r.finish(BenchHybridIndex)
}

// runDual is the Figure 9b workload: consolidated Dual stores, half the
// threads serving foreground puts on the DRAM map, half draining the
// cross-referencing log into the NVM map. Per instance the foreground
// threads spawn before the background ones.
func runDual(spec SystemSpec, cfg Config) Result {
	r := newBenchRun(spec, cfg)
	st := r.m.Store()
	dArenas, nArenas := arenasFor(cfg)
	ops := cfg.opsPerBatch()
	fg := max(cfg.ThreadsPerInstance/2, 1)
	for inst := 0; inst < cfg.Instances; inst++ {
		d := kv.NewDual(st, dArenas[inst], nArenas[inst], hashBuckets(cfg.KeySpace), fg, 8*ops, cfg.ValueSize)
		for _, p := range d.Parts {
			cfg.prepopulate(func(k uint64, v []byte) {
				p.Front.Put(st, k, v)
				p.Back.Put(st, k, v)
			})
		}
		fgLeft := fg
		for t := 0; t < fg; t++ {
			r.spawn(fmt.Sprintf("dual%d.f%d", inst, t), inst, t, func(c *core.Ctx, rng *rand.Rand) {
				for batch := 0; batch < cfg.BatchesPerThread; batch++ {
					d.FrontPut(c, t, cfg.randomBatch(rng, ops))
				}
				fgLeft--
			})
		}
		for t := 0; t < cfg.ThreadsPerInstance-fg; t++ {
			r.spawn(fmt.Sprintf("dual%d.b%d", inst, t), inst, fg+t, func(c *core.Ctx, _ *rand.Rand) {
				part := t % fg
				for {
					// Poll again at once after a step that drained
					// entries; idle only when the log was empty.
					if d.BackendStep(c, part, ops) == 0 {
						if fgLeft == 0 && d.Parts[part].XLog.Len(c.NT()) == 0 {
							return
						}
						idle(c)
					}
				}
			})
		}
	}
	return r.finish(BenchDual)
}

// Run dispatches a benchmark family.
func Run(spec SystemSpec, b Bench, cfg Config) Result {
	switch b {
	case BenchHashMap, BenchBTree, BenchRBTree, BenchSkipList, BenchMixed:
		return runPMDK(spec, b, cfg)
	case BenchEcho:
		if cfg.LongROEvery > 0 {
			return runEchoLongRO(spec, cfg)
		}
		return runEcho(spec, cfg)
	case BenchHybridIndex:
		return runHybridIndex(spec, cfg)
	case BenchDual:
		return runDual(spec, cfg)
	default:
		panic(fmt.Sprintf("workload: unknown benchmark %q", b))
	}
}
