package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"uhtm/internal/server"
	"uhtm/internal/shard"
	"uhtm/internal/stats"
)

// kvConns is the client connection count: one closed-loop client per
// host core of the 2-core reference box.
const kvConns = 2

// kvCores is the simulated core count of every shard, and kvGOMAXPROCS
// the host Ps the kv workloads run on (see NOTES.md, "GOMAXPROCS").
const (
	kvCores      = 4
	kvGOMAXPROCS = 1
)

// kvWorkload is one traffic mix against an in-process server.
type kvWorkload struct {
	name      string
	shards    int
	keys      int // prepopulated keys 1..keys, also the key space
	prepopVal int // prepopulated value size
	zipfS     float64
	readFrac  float64 // GET share of single ops; the rest are PUTs
	crossFrac float64 // share of requests sent as cross-shard MULTI…EXEC
	valSizes  []int   // PUT value sizes, drawn uniformly
	setups    int     // set-ups timed for the setup_s median
}

// kvRead is the read-mostly request path: one shard whose data fits in
// the simulated LLC, Zipf-skewed keys, single-command requests.
var kvRead = kvWorkload{
	name: "kv-read", shards: 1, keys: 10000, prepopVal: 64,
	zipfS: 1.2, readFrac: 0.9, valSizes: []int{256}, setups: 15,
}

// kvWrite2PC is the durable-write path: four shards whose data exceeds
// each shard's simulated LLC, uniform keys, mostly PUTs, a quarter of
// requests committed across shards through 2PC.
var kvWrite2PC = kvWorkload{
	name: "kv-write-2pc", shards: 4, keys: 300000, prepopVal: 256,
	readFrac: 0.3, crossFrac: 0.25, valSizes: []int{64, 256, 1024}, setups: 5,
}

// readbackBatch is how many GETs one read-back MULTI…EXEC carries (all
// on one home shard, so each batch is one local transaction).
const readbackBatch = 32

// served is one listening server with its clients.
type served struct {
	srv       *server.Server
	clients   []*server.Client
	dispatch0 uint64 // engine dispatches summed over shards at Listen
	recorder  *recorder
}

// setup builds, prepopulates and starts a server and dials the
// clients. A non-nil recorder's hooks go on every shard before Listen,
// while the engine loop does not yet own the shards.
func (w kvWorkload) setup(rec *recorder) (*served, error) {
	srv := server.New(server.Config{
		Cores:           kvCores,
		Shards:          w.shards,
		Prepopulate:     w.keys,
		PrepopValueSize: w.prepopVal,
	})
	s := &served{srv: srv, recorder: rec}
	cl := srv.Cluster()
	for k, sh := range cl.Shards() {
		s.dispatch0 += sh.Engine().Dispatches()
		if rec != nil {
			cl.SetHook(k, rec.hook(k))
		}
	}
	if err := srv.Listen(); err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	for i := 0; i < kvConns; i++ {
		c, err := server.Dial(srv.Addr().String())
		if err != nil {
			s.close()
			return nil, fmt.Errorf("dial: %w", err)
		}
		s.clients = append(s.clients, c)
	}
	return s, nil
}

// close severs the clients and shuts the server down, draining its
// queue and running the final reclamation pass.
func (s *served) close() error {
	for _, c := range s.clients {
		c.Close() // the server side sees EOF; nothing is pending
	}
	return s.srv.Close()
}

// statsDoc is the part of the STATS reply the benchmark reads.
type statsDoc struct {
	Server struct {
		Batches         uint64 `json:"batches"`
		Requests        uint64 `json:"requests"`
		CrossCommits    uint64 `json:"cross_commits"`
		CrossAborts     uint64 `json:"cross_aborts"`
		RecoveryScanned int    `json:"recovery_scanned"`
		RecoveryApplied int    `json:"recovery_applied"`
	} `json:"server"`
	Machine stats.Stats `json:"machine"`
}

func fetchStats(c *server.Client) (statsDoc, error) {
	var d statsDoc
	rep, err := c.DoStrings("STATS")
	if err != nil {
		return d, fmt.Errorf("STATS: %w", err)
	}
	if rep.Kind != server.ReplyBulk {
		return d, fmt.Errorf("STATS: unexpected reply %+v", rep)
	}
	if err := json.Unmarshal(rep.Bulk, &d); err != nil {
		return d, fmt.Errorf("STATS: %w", err)
	}
	return d, nil
}

// client is one closed-loop connection's state for a window.
type client struct {
	id    int
	c     *server.Client
	rng   *rand.Rand
	zipf  *rand.Zipf
	seq   atomic.Uint64 // next unused PUT sequence number
	acked ackLog

	all, put, cross []float64 // latencies in µs
	errs            int

	// Traced: the first commands' argv and replies, for codec replay.
	wire     [][][]byte
	wireReps []server.Reply
}

// maxWire bounds how many requests a traced client keeps for the codec
// replay.
const maxWire = 4096

func newClient(id int, c *server.Client, w kvWorkload, seed int64) *client {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(id)))
	cl := &client{id: id, c: c, rng: rng, acked: ackLog{}}
	if w.zipfS > 0 {
		cl.zipf = rand.NewZipf(rng, w.zipfS, 1, uint64(w.keys-1))
	}
	return cl
}

func (cl *client) key(w kvWorkload) uint64 {
	if cl.zipf != nil {
		return cl.zipf.Uint64() + 1
	}
	return uint64(cl.rng.Intn(w.keys)) + 1
}

// pendingPut is a write awaiting its acknowledgement.
type pendingPut struct{ key, seq uint64 }

// op draws one GET or PUT on key.
func (cl *client) op(w kvWorkload, key uint64, puts *[]pendingPut) [][]byte {
	ks := []byte(strconv.FormatUint(key, 10))
	if cl.rng.Float64() < w.readFrac {
		return [][]byte{[]byte("GET"), ks}
	}
	seq := cl.seq.Add(1) - 1
	size := w.valSizes[cl.rng.Intn(len(w.valSizes))]
	*puts = append(*puts, pendingPut{key, seq})
	return [][]byte{[]byte("PUT"), ks, makeValue(cl.id, seq, key, size)}
}

// next draws one request: a single command, or a MULTI…EXEC whose two
// keys live on different shards.
func (cl *client) next(w kvWorkload) (cmds [][][]byte, puts []pendingPut, cross bool) {
	if w.shards > 1 && cl.rng.Float64() < w.crossFrac {
		k0 := cl.key(w)
		k1 := cl.key(w)
		for shard.ShardOf(k1, w.shards) == shard.ShardOf(k0, w.shards) {
			k1 = cl.key(w)
		}
		cmds = [][][]byte{{[]byte("MULTI")}, cl.op(w, k0, &puts), cl.op(w, k1, &puts), {[]byte("EXEC")}}
		return cmds, puts, true
	}
	return [][][]byte{cl.op(w, cl.key(w), &puts)}, puts, false
}

// window drives every client in a closed loop until the deadline and
// returns the measured span and completed request count. GET replies
// are checked as they arrive.
func window(w kvWorkload, cls []*client, seconds float64, keepWire bool, rep *report) (time.Duration, int) {
	issued := func(c int) uint64 { return cls[c].seq.Load() }
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var mu sync.Mutex // guards rep
	var wg sync.WaitGroup
	ends := make([]time.Time, len(cls))
	for i, cl := range cls {
		wg.Add(1)
		go func(i int, cl *client) {
			defer wg.Done()
			for {
				cmds, puts, cross := cl.next(w)
				t0 := time.Now()
				if !t0.Before(deadline) {
					ends[i] = t0
					return
				}
				reps, err := cl.c.Pipeline(cmds)
				us := float64(time.Since(t0)) / float64(time.Microsecond)
				if err != nil {
					cl.errs++
					mu.Lock()
					rep.fail("conn %d: %v", cl.id, err)
					mu.Unlock()
					ends[i] = time.Now()
					return
				}
				if keepWire && len(cl.wire) < maxWire {
					cl.wire = append(cl.wire, cmds...)
					cl.wireReps = append(cl.wireReps, reps...)
				}
				if msg := checkReplies(w, cl, cmds, reps, issued); msg != "" {
					cl.errs++
					mu.Lock()
					rep.fail("conn %d: %s", cl.id, msg)
					mu.Unlock()
					continue
				}
				for _, p := range puts {
					cl.acked[p.key] = p.seq
				}
				cl.all = append(cl.all, us)
				if len(puts) > 0 {
					cl.put = append(cl.put, us)
				}
				if cross {
					cl.cross = append(cl.cross, us)
				}
			}
		}(i, cl)
	}
	wg.Wait()
	last := start
	n := 0
	for i, cl := range cls {
		if ends[i].After(last) {
			last = ends[i]
		}
		n += len(cl.all) + cl.errs
	}
	return last.Sub(start), n
}

// checkReplies validates one request's replies, checking GETs against
// what client cl has had acknowledged, and returns a description of the
// first problem or "".
func checkReplies(w kvWorkload, cl *client, cmds [][][]byte, reps []server.Reply, issued func(int) uint64) string {
	if len(reps) != len(cmds) {
		return fmt.Sprintf("%d replies to %d commands", len(reps), len(cmds))
	}
	ops, results := cmds, reps
	if len(cmds) > 1 { // MULTI op… EXEC: the results are EXEC's array
		last := reps[len(reps)-1]
		if last.Kind != server.ReplyArray || len(last.Array) != len(cmds)-2 {
			return fmt.Sprintf("EXEC replied %+v", last)
		}
		ops, results = cmds[1:len(cmds)-1], last.Array
	}
	for i, op := range ops {
		r := results[i]
		if r.Kind == server.ReplyErr {
			return "error reply: " + r.Str
		}
		key, _ := strconv.ParseUint(string(op[1]), 10, 64)
		switch string(op[0]) {
		case "GET":
			if err := checkRead(key, r.Bulk, r.Kind == server.ReplyBulk && !r.Nil, cl.id, cl.acked, issued, w.prepopVal); err != nil {
				return err.Error()
			}
		case "PUT":
			if r.Kind != server.ReplySimple || r.Str != "OK" {
				return fmt.Sprintf("PUT replied %+v", r)
			}
		}
	}
	return ""
}

// readBack reads every key some client wrote, in single-shard
// MULTI…EXEC batches split across the clients, and checks each value
// against the acknowledged writes. It returns how many keys it read.
func readBack(w kvWorkload, cls []*client, rep *report) int {
	acked := make([]ackLog, len(cls))
	seen := map[uint64]bool{}
	var keys []uint64
	for i, cl := range cls {
		acked[i] = cl.acked
		for k := range cl.acked {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	byShard := make([][]uint64, w.shards)
	for _, k := range keys {
		h := shard.ShardOf(k, w.shards)
		byShard[h] = append(byShard[h], k)
	}
	var batches [][]uint64
	for _, ks := range byShard {
		for len(ks) > 0 {
			n := min(readbackBatch, len(ks))
			batches = append(batches, ks[:n])
			ks = ks[n:]
		}
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i, cl := range cls {
		wg.Add(1)
		go func(i int, cl *client) {
			defer wg.Done()
			for b := i; b < len(batches); b += len(cls) {
				msgs := readBatch(w, cl.c, batches[b], acked)
				mu.Lock()
				for _, m := range msgs {
					rep.fail("read-back: %s", m)
				}
				mu.Unlock()
			}
		}(i, cl)
	}
	wg.Wait()
	return len(keys)
}

// readBatch reads one batch of keys in one transaction and checks them.
func readBatch(w kvWorkload, c *server.Client, keys []uint64, acked []ackLog) []string {
	cmds := make([][][]byte, 0, len(keys)+2)
	cmds = append(cmds, [][]byte{[]byte("MULTI")})
	for _, k := range keys {
		cmds = append(cmds, [][]byte{[]byte("GET"), []byte(strconv.FormatUint(k, 10))})
	}
	cmds = append(cmds, [][]byte{[]byte("EXEC")})
	reps, err := c.Pipeline(cmds)
	if err != nil {
		return []string{err.Error()}
	}
	last := reps[len(reps)-1]
	if last.Kind != server.ReplyArray || len(last.Array) != len(keys) {
		return []string{fmt.Sprintf("EXEC replied %+v", last)}
	}
	var msgs []string
	for i, k := range keys {
		r := last.Array[i]
		if err := checkFinal(k, r.Bulk, r.Kind == server.ReplyBulk && !r.Nil, acked, w.prepopVal); err != nil {
			msgs = append(msgs, err.Error())
		}
	}
	return msgs
}

// runKV runs one kv workload: set-up (timed several times), the
// closed-loop window, read-back, a CRASH drill and a second read-back.
// With o.trace it first runs an untraced window on its own server, for
// the tracing overhead, then the traced one.
func runKV(w kvWorkload, o options) (*report, error) {
	runtime.GOMAXPROCS(kvGOMAXPROCS)
	rep := newReport()
	seconds := o.seconds
	var untracedRPS float64
	if o.trace {
		seconds = o.seconds / 2
		s, err := w.setup(nil)
		if err != nil {
			return nil, err
		}
		cls := w.clients(s, o.seed+1)
		span, n := window(w, cls, seconds, false, rep)
		rep.attempted += n
		untracedRPS = float64(n) / span.Seconds()
		s.close()
		settle()
	}

	var setups []float64
	var s *served
	for i := 0; i < w.setups; i++ {
		if s != nil {
			s.close()
			s = nil
		}
		settle()
		var rec *recorder
		if o.trace {
			rec = newRecorder(w.shards)
		}
		t0 := time.Now()
		var err error
		if s, err = w.setup(rec); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if o.trace {
			break // the traced run reports no set-up time
		}
	}
	defer func() {
		if s != nil {
			s.close()
		}
	}()
	cls := w.clients(s, o.seed)
	before, err := fetchStats(cls[0].c)
	if err != nil {
		return nil, err
	}
	settle()
	var prof *cpuProfile
	if o.trace {
		if prof, err = startCPUProfile(o.workload, o.seed); err != nil {
			return nil, err
		}
		s.recorder.start()
	}
	a0 := allocBytes()
	span, n := window(w, cls, seconds, o.trace, rep)
	allocated := allocBytes() - a0
	if o.trace {
		s.recorder.stop()
		if err := prof.stop(); err != nil {
			return nil, err
		}
	}
	rep.attempted += n
	after, err := fetchStats(cls[0].c)
	if err != nil {
		return nil, err
	}

	rep.attempted += readBack(w, cls, rep)
	t0 := time.Now()
	r, err := cls[0].c.DoStrings("CRASH")
	recoverS := time.Since(t0).Seconds()
	rep.attempted++
	if err != nil || r.Kind != server.ReplySimple {
		rep.fail("CRASH drill: %v %+v", err, r)
	}
	rep.attempted += readBack(w, cls, rep)
	drill, err := fetchStats(cls[0].c)
	if err != nil {
		return nil, err
	}
	if err := s.close(); err != nil {
		rep.fail("server shutdown: %v", err)
	}
	var dispatches uint64
	for _, sh := range s.srv.Cluster().Shards() {
		dispatches += sh.Engine().Dispatches()
	}
	dispatches -= s.dispatch0
	rec := s.recorder
	s = nil

	var all, put, cross []float64
	for _, cl := range cls {
		all = append(all, cl.all...)
		put = append(put, cl.put...)
		cross = append(cross, cl.cross...)
	}
	all, put, cross = sorted(all), sorted(put), sorted(cross)
	rps := float64(len(all)) / span.Seconds()
	rep.set("throughput_rps", rps, "1/s", len(all))
	rep.set("p50_us", quantile(all, 0.50), "us", len(all))
	rep.set("p99_us", quantile(all, 0.99), "us", len(all))
	if supports(len(all), 0.999) {
		rep.set("p999_us", quantile(all, 0.999), "us", len(all))
	}
	rep.set("write_p99_us", quantile(put, 0.99), "us", len(put))
	rep.set("alloc_kb_per_op", float64(allocated)/float64(max(len(all), 1))/1024, "KB", len(all))
	if len(cross) > 0 {
		rep.set("shard.cross_p99_us", quantile(cross, 0.99), "us", len(cross))
	}
	rep.set("shard.recover_s", recoverS, "s", 1)
	if !o.trace {
		rep.set("setup_s", median(setups), "s", len(setups))
		return rep, nil
	}

	// Per-layer metrics of the traced window.
	if err := setCPUShares(rep, prof); err != nil {
		return nil, err
	}
	d := delta(before, after)
	reqs := after.Server.Requests - before.Server.Requests
	crossCommits := after.Server.CrossCommits - before.Server.CrossCommits
	rep.set("trace.overhead", 1-rps/untracedRPS, "ratio", 2)
	rep.set("server.reqs_per_wave", float64(reqs)/float64(max(after.Server.Batches-before.Server.Batches, 1)), "ratio", int(reqs))
	rep.set("server.codec_ns", codecNS(cls), "ns", len(cls[0].wire)+len(cls[1].wire))
	rep.set("sim.dispatches_per_req", float64(dispatches)/float64(max(drill.Server.Requests, 1)), "ratio", int(drill.Server.Requests))
	setCoreCounts(rep, &d)
	rep.set("signature.checks", float64(d.SigChecks), "count", 1)
	rep.set("shard.cross_commits", float64(crossCommits), "count", 1)
	rep.set("shard.cross_aborts", float64(after.Server.CrossAborts-before.Server.CrossAborts), "count", 1)
	rep.set("shard.recovery_scanned", float64(drill.Server.RecoveryScanned), "count", 1)
	rep.set("shard.recovery_applied", float64(drill.Server.RecoveryApplied), "count", 1)
	setSpans(rep, rec.derive(), d.Commits+crossCommits, span)
	rep.zero("harness.cell_s.max", "harness.par_eff", "harness.wall_s")
	if _, ok := rep.metrics["shard.cross_p99_us"]; !ok {
		rep.zero("shard.cross_p99_us")
	}
	dir, err := traceDir(o.workload, o.seed)
	if err != nil {
		return nil, err
	}
	return rep, rec.dump(filepath.Join(dir, "events.txt"))
}

// hookMetrics are the per-layer metrics derived from injection-point
// spans and counts (see setSpans).
var hookMetrics = []string{
	"core.commit_us.p50", "core.commit_us.p99", "core.abort_us.p50",
	"core.reclaim_passes", "core.reclaim_ms", "core.reclaim_share",
	"wal.appends_per_commit", "mem.persist_lines_per_commit",
	"shard.prepare_us", "shard.decide_us", "shard.apply_us",
}

// serverMetrics are the per-layer metrics only a served workload has.
var serverMetrics = []string{
	"server.reqs_per_wave", "server.codec_ns", "sim.dispatches_per_req",
	"shard.cross_commits", "shard.cross_aborts", "shard.cross_p99_us",
	"shard.recovery_scanned", "shard.recovery_applied", "shard.recover_s",
}

// setSpans records the hook-derived metrics of a traced window that
// lasted span and committed commits transactions (local plus
// cross-shard). A span kind the window never produced reads 0.
func setSpans(rep *report, sp spans, commits uint64, span time.Duration) {
	p := func(xs []float64, q float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return quantile(sorted(xs), q)
	}
	rep.set("core.commit_us.p50", p(sp.commit, 0.5), "us", len(sp.commit))
	rep.set("core.commit_us.p99", p(sp.commit, 0.99), "us", len(sp.commit))
	rep.set("core.abort_us.p50", p(sp.abort, 0.5), "us", len(sp.abort))
	rep.set("core.reclaim_passes", float64(sp.reclaimPasses), "count", 1)
	rep.set("core.reclaim_ms", p(sp.reclaim, 0.5)/1e3, "ms", len(sp.reclaim))
	busy := 0.0
	for _, us := range sp.reclaim {
		busy += us
	}
	rep.set("core.reclaim_share", busy/float64(span.Microseconds()), "ratio", len(sp.reclaim))
	per := func(n uint64) float64 { return float64(n) / float64(max(commits, 1)) }
	rep.set("wal.appends_per_commit", per(sp.appends), "ratio", int(commits))
	rep.set("mem.persist_lines_per_commit", per(sp.persists), "ratio", int(commits))
	rep.set("shard.prepare_us", p(sp.prepare, 0.5), "us", len(sp.prepare))
	rep.set("shard.decide_us", p(sp.decide, 0.5), "us", len(sp.decide))
	rep.set("shard.apply_us", p(sp.apply, 0.5), "us", len(sp.apply))
}

// clients wraps the server's connections as closed-loop clients.
func (w kvWorkload) clients(s *served, seed int64) []*client {
	cls := make([]*client, len(s.clients))
	for i, c := range s.clients {
		cls[i] = newClient(i, c, w, seed)
	}
	return cls
}

// delta subtracts two STATS machine snapshots.
func delta(a, b statsDoc) stats.Stats {
	d := b.Machine
	d.Commits -= a.Machine.Commits
	for i := range d.AbortsBy {
		d.AbortsBy[i] -= a.Machine.AbortsBy[i]
	}
	d.SlowPath -= a.Machine.SlowPath
	d.Overflows -= a.Machine.Overflows
	d.SigChecks -= a.Machine.SigChecks
	return d
}

// setCoreCounts records the HTM outcome counts.
func setCoreCounts(rep *report, d *stats.Stats) {
	rep.set("core.commits", float64(d.Commits), "count", 1)
	rep.set("core.aborts", float64(d.Aborts()), "count", 1)
	rep.set("core.abort_rate", d.AbortRate(), "ratio", int(d.Attempts()))
	for _, c := range []stats.AbortCause{stats.CauseTrueConflict, stats.CauseFalsePositive, stats.CauseCapacity, stats.CauseLock} {
		rep.set("core.aborts."+c.String(), float64(d.AbortsBy[c]), "count", 1)
	}
	rep.set("core.overflows", float64(d.Overflows), "count", 1)
	rep.set("core.slow_path", float64(d.SlowPath), "count", 1)
}
