package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"uhtm/internal/core"
	"uhtm/internal/mem"
	"uhtm/internal/server"
	"uhtm/internal/shard"
	"uhtm/internal/wal"
)

// The traced run records host timestamps at the simulator's named
// crash-injection points, which every layer already fires at its
// protocol steps. Cluster.SetHook installs one callback per shard;
// the callbacks run on that shard's goroutine, so each shard records
// into its own buffer and nothing is shared until the run ends.

// point identifies a recorded injection point.
type point uint8

const (
	ptCommitBegin point = iota
	ptCommitCleanup
	ptAbortBegin
	ptAbortDone
	ptReclaimBegin
	ptReclaimRings
	ptReclaimCtrl // any ring's reclaim.ctrl: a truncation step of a pass
	ptPrepare     // shard.2pc.prepare.logged
	ptDecision
	ptApplyMark
	ptApplyLine
	ptResolve
)

var pointNames = [...]string{
	"commit.begin", "commit.cleanup", "abort.begin", "abort.done",
	"reclaim.begin", "reclaim.rings", "reclaim.ctrl", "2pc.prepare", "2pc.decision",
	"2pc.apply.mark", "2pc.apply.line", "2pc.resolve",
}

// event is one recorded point: nanoseconds since the recorder's base.
type event struct {
	at int64
	p  point
}

// shardRec is one shard's buffer.
type shardRec struct {
	events   []event
	appends  uint64 // *.append.record hits
	persists uint64 // mem.persist.line hits
	// firstAppend is the first append since the last recorded event:
	// on a participant it marks where a 2PC prepare starts logging.
	firstAppend int64
	prepare     []float64 // µs from first prepare append to prepare.logged
}

// recorder collects hook events for one server while on.
type recorder struct {
	on     atomic.Bool
	base   time.Time
	shards []*shardRec
}

func newRecorder(shards int) *recorder {
	r := &recorder{base: time.Now()}
	for i := 0; i < shards; i++ {
		r.shards = append(r.shards, &shardRec{events: make([]event, 0, 1<<16)})
	}
	return r
}

func (r *recorder) start() { r.on.Store(true) }
func (r *recorder) stop()  { r.on.Store(false) }

// hook returns shard k's injection-point callback.
func (r *recorder) hook(k int) func(string) {
	sr := r.shards[k]
	return func(name string) {
		if !r.on.Load() {
			return
		}
		now := int64(time.Since(r.base))
		switch name {
		case core.PointCommitBegin:
			sr.add(now, ptCommitBegin)
		case core.PointCommitCleanup:
			sr.add(now, ptCommitCleanup)
		case core.PointAbortBegin:
			sr.add(now, ptAbortBegin)
		case core.PointAbortDone:
			sr.add(now, ptAbortDone)
		case core.PointReclaimBegin:
			sr.add(now, ptReclaimBegin)
		case core.PointReclaimRings:
			sr.add(now, ptReclaimRings)
		case shard.PointPrepareLogged:
			if sr.firstAppend > 0 {
				sr.prepare = append(sr.prepare, float64(now-sr.firstAppend)/1e3)
			}
			sr.add(now, ptPrepare)
		case shard.PointDecisionLogged:
			sr.add(now, ptDecision)
		case shard.PointApplyMark:
			sr.add(now, ptApplyMark)
		case shard.PointApplyLine:
			sr.add(now, ptApplyLine)
		case shard.PointResolveCkpt:
			sr.add(now, ptResolve)
		case mem.PointPersistLine:
			sr.persists++
		default:
			switch {
			case strings.HasSuffix(name, "."+wal.PointAppendRecord):
				sr.appends++
				if sr.firstAppend == 0 {
					sr.firstAppend = now
				}
			case strings.HasSuffix(name, "."+wal.PointReclaimCtrl):
				sr.add(now, ptReclaimCtrl)
			}
		}
	}
}

func (sr *shardRec) add(at int64, p point) {
	sr.events = append(sr.events, event{at, p})
	sr.firstAppend = 0
}

// spans are the per-layer durations derived from the events.
type spans struct {
	commit, abort, reclaim []float64 // µs
	prepare, decide, apply []float64 // µs
	reclaimPasses          int
	appends, persists      uint64
}

// derive pairs the recorded events into spans. Within a shard a begin
// pairs with the next matching end. A reclamation pass runs from
// reclaim.begin to its last ring truncation (reclaim.ctrl), or to
// reclaim.rings when it truncated nothing. The 2PC points are merged
// across shards by time: a decision closes the prepares before it, and
// the apply phase runs to the last apply point before the next
// transaction's points.
func (r *recorder) derive() spans {
	var sp spans
	var twopc []event
	for _, sr := range r.shards {
		sp.appends += sr.appends
		sp.persists += sr.persists
		sp.prepare = append(sp.prepare, sr.prepare...)
		var commitAt, abortAt, reclaimAt, ctrlAt int64 = -1, -1, -1, -1
		closeReclaim := func() {
			if reclaimAt >= 0 && ctrlAt >= 0 {
				sp.reclaim = append(sp.reclaim, float64(ctrlAt-reclaimAt)/1e3)
			}
			reclaimAt, ctrlAt = -1, -1
		}
		for _, e := range sr.events {
			if e.p != ptReclaimCtrl && e.p != ptReclaimRings {
				closeReclaim()
			}
			switch e.p {
			case ptCommitBegin:
				commitAt = e.at
			case ptCommitCleanup:
				if commitAt >= 0 {
					sp.commit = append(sp.commit, float64(e.at-commitAt)/1e3)
				}
				commitAt = -1
			case ptAbortBegin:
				abortAt = e.at
			case ptAbortDone:
				if abortAt >= 0 {
					sp.abort = append(sp.abort, float64(e.at-abortAt)/1e3)
				}
				abortAt = -1
			case ptReclaimBegin:
				sp.reclaimPasses++
				reclaimAt = e.at
			case ptReclaimRings, ptReclaimCtrl:
				if reclaimAt >= 0 {
					ctrlAt = e.at
				}
			case ptPrepare, ptDecision, ptApplyMark, ptApplyLine, ptResolve:
				twopc = append(twopc, e)
			}
		}
		closeReclaim()
	}
	sort.SliceStable(twopc, func(i, j int) bool { return twopc[i].at < twopc[j].at })
	var lastPrep, decAt, lastApply int64 = -1, -1, -1
	closeApply := func() {
		if decAt >= 0 && lastApply >= 0 {
			sp.apply = append(sp.apply, float64(lastApply-decAt)/1e3)
		}
		decAt, lastApply = -1, -1
	}
	for _, e := range twopc {
		switch e.p {
		case ptPrepare:
			closeApply()
			lastPrep = e.at
		case ptDecision:
			closeApply()
			if lastPrep >= 0 {
				sp.decide = append(sp.decide, float64(e.at-lastPrep)/1e3)
			}
			lastPrep, decAt = -1, e.at
		case ptApplyMark, ptApplyLine:
			if decAt >= 0 {
				lastApply = e.at
			}
		case ptResolve:
			closeApply()
		}
	}
	closeApply()
	return sp
}

// dump writes every shard's events as text lines "shard ns point".
func (r *recorder) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for k, sr := range r.shards {
		for _, e := range sr.events {
			fmt.Fprintf(w, "%d %d %s\n", k, e.at, pointNames[e.p])
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// codecNS times the server's wire codec on the workload's own traffic:
// ReadRequest over the recorded request bytes plus WriteReply of the
// reply each command actually got, per command, taking the median of
// several replays.
func codecNS(cls []*client) float64 {
	var wire bytes.Buffer
	bw := bufio.NewWriter(&wire)
	var replies []server.Reply
	for _, cl := range cls {
		for _, argv := range cl.wire {
			if err := server.WriteRequest(bw, argv); err != nil {
				return math.NaN()
			}
		}
		replies = append(replies, cl.wireReps...)
	}
	if err := bw.Flush(); err != nil || len(replies) == 0 {
		return math.NaN()
	}
	raw := wire.Bytes()
	out := bufio.NewWriter(io.Discard)
	var runs []float64
	for rep := 0; rep < 7; rep++ {
		r := bufio.NewReader(bytes.NewReader(raw))
		t0 := time.Now()
		for i := range replies {
			if _, err := server.ReadRequest(r); err != nil {
				return math.NaN()
			}
			if err := server.WriteReply(out, replies[i]); err != nil {
				return math.NaN()
			}
		}
		runs = append(runs, float64(time.Since(t0))/float64(len(replies)))
	}
	return median(runs)
}

// traceDir makes and returns the directory one traced run writes to.
func traceDir(workload string, seed int64) (string, error) {
	dir := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", workload, seed))
	return dir, os.MkdirAll(dir, 0o755)
}
