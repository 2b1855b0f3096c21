package shard

import (
	"encoding/binary"
	"fmt"
	"sort"

	"uhtm/internal/mem"
	"uhtm/internal/sim"
	"uhtm/internal/wal"
)

// Injection points fired by the cross-shard commit protocol, in
// protocol order, all prefixed per shard ("s<k>." + point) by the sweep.
// Together with the wal.* points of the decision log
// (shard.decision.append.record etc.) and the core.*/wal.*/mem.* points
// the underlying machines fire, crashing at every point covers every
// reachable mid-2PC durable state. See RECOVERY.md.
const (
	// PointPrepareLogged fires on a participant shard after one cross
	// transaction's prepare record set (its RecWrite images plus the
	// RecPrepare mark) is durable on the shard's redo ring. A crash here
	// leaves a durable prepared write set with no decision: recovery
	// discards it everywhere.
	PointPrepareLogged = "shard.2pc.prepare.logged"
	// PointDecisionLogged fires on shard 0 after one decision record
	// (RecCommit or RecAbort for a GID) is durable in the coordinator
	// decision log. A crash here commits the decided prefix of the wave:
	// decided transactions complete during recovery, the rest vanish.
	PointDecisionLogged = "shard.2pc.decision.logged"
	// PointApplyMark fires on a participant shard before the per-shard
	// apply mark (RecCommit) is appended for a decided transaction. A
	// crash here leaves the decision durable but this shard unmarked:
	// recovery re-applies from the prepare records.
	PointApplyMark = "shard.2pc.apply.mark"
	// PointApplyLine fires before each in-place line write+persist of a
	// decided transaction's apply. A crash mid-apply leaves a torn
	// in-place image that local replay completes from the durable mark
	// plus prepare records.
	PointApplyLine = "shard.2pc.apply.line"
	// PointResolveCkpt fires on shard 0 before the resolution cell —
	// the highest fully resolved GID sequence — persists (a single-line,
	// hence crash-atomic, durable update). A crash here replays the
	// round's decisions idempotently.
	PointResolveCkpt = "shard.2pc.resolve.ckpt"
)

// PointPrefixDecision is the injection-point prefix of the coordinator
// decision log (wal.Log.SetPointPrefix), yielding
// shard.decision.append.record / append.ctrl / reclaim.ctrl.
const PointPrefixDecision = "shard.decision."

// Protocol latencies charged to the simulated threads driving 2PC.
const (
	prepareLatPerRec = 5 * sim.Nanosecond   // redo-ring append + flush
	coordHopLat      = 200 * sim.Nanosecond // shard ↔ coordinator message
	decisionLatPerTx = 10 * sim.Nanosecond  // decision append
	applyLatPerLine  = 8 * sim.Nanosecond   // in-place write + persist
)

// LineWrite is one full-line NVM write of a cross-shard transaction:
// the image captured before prepare and reused verbatim by apply and
// recovery, so the durable log and the in-place update can never
// disagree.
type LineWrite struct {
	// Addr is the line base address (64-byte aligned).
	Addr mem.Addr
	// Img is the complete post-transaction line image.
	Img mem.Line
}

// crossTx is one cross-shard transaction as the commit protocol sees
// it: its global ID, its per-shard write sets and the coordinator's
// verdict. The canned driver keeps every one it issues (Cluster.waves)
// as ground truth for the sweep's atomicity check.
type crossTx struct {
	gid      uint64
	seq      uint64
	writes   [][]LineWrite // shard → writes (empty: not a writer), ascending by addr in the canned driver
	admitted bool          // wave conflict admission verdict
	decided  bool          // the coordinator's decision record is durable
}

// String identifies a cross transaction in diagnostics.
func (tx *crossTx) String() string {
	var shards []int
	for k, ws := range tx.writes {
		if len(ws) > 0 {
			shards = append(shards, k)
		}
	}
	return fmt.Sprintf("gid=%#x seq=%d shards=%v admitted=%v", tx.gid, tx.seq, shards, tx.admitted)
}

// buildWave constructs round r's cross-shard transactions, capturing
// each write's full line image from the live store (nothing writes the
// pools between here and prepare), and runs conflict admission:
// transactions are admitted greedily in GID order, and one whose
// (shard, line) set overlaps an earlier admitted transaction in the
// same wave is aborted by the coordinator (the cross-shard analogue of
// a conflict abort). Everything is a pure function of (Config, r), so
// waves are identical on every run.
func (c *Cluster) buildWave(r int) []*crossTx {
	cfg := c.cfg
	type shardLine struct {
		shard int
		addr  mem.Addr
	}
	taken := make(map[shardLine]bool)
	var wave []*crossTx
	for j := 0; j < cfg.CrossPerRound; j++ {
		c.seq++
		tx := &crossTx{gid: GIDBase | c.seq, seq: c.seq, writes: make([][]LineWrite, cfg.Shards)}
		base := pick(r*7+3, j, 0, cfg.Shards)
		parts := make([]int, cfg.CrossShards)
		for i := range parts {
			parts[i] = (base + i) % cfg.Shards
		}
		sort.Ints(parts)
		for i, s := range parts {
			sh := c.shards[s]
			seen := make(map[mem.Addr]bool, cfg.WritesPerTx)
			for w := 0; w < cfg.WritesPerTx; w++ {
				li := pick(r*17+5, j*29+1, i*cfg.WritesPerTx+w, cfg.LinesPerShard)
				la := sh.pool[li]
				if seen[la] {
					continue // duplicate pick within the same tx: one write
				}
				seen[la] = true
				img := sh.m.Store().PeekLine(la)
				binary.LittleEndian.PutUint64(img[:8], tx.seq<<20|uint64(i)<<10|uint64(w+1))
				tx.writes[s] = append(tx.writes[s], LineWrite{Addr: la, Img: img})
			}
			sort.Slice(tx.writes[s], func(a, b int) bool {
				return tx.writes[s][a].Addr < tx.writes[s][b].Addr
			})
		}
		// Greedy admission against the wave's already-admitted sets.
		tx.admitted = true
		for s, ws := range tx.writes {
			for _, w := range ws {
				tx.admitted = tx.admitted && !taken[shardLine{s, w.Addr}]
			}
		}
		if tx.admitted {
			for s, ws := range tx.writes {
				for _, w := range ws {
					taken[shardLine{s, w.Addr}] = true
				}
			}
		}
		wave = append(wave, tx)
	}
	c.waves = append(c.waves, wave...)
	return wave
}

// writers returns the shards with a non-empty write set in the wave, in
// index order: the shards that prepare and apply.
func (c *Cluster) writers(wave []*crossTx) []*Shard {
	var out []*Shard
	for k, sh := range c.shards {
		for _, tx := range wave {
			if len(tx.writes[k]) > 0 {
				out = append(out, sh)
				break
			}
		}
	}
	return out
}

// phase runs body once per listed shard, each on one fresh simulated
// thread of that shard's session, as one cross-shard barrier. A halt on
// any shard stops the cluster; phase reports it.
func (c *Cluster) phase(shards []*Shard, name string, body func(sh *Shard, th *sim.Thread)) bool {
	if c.Fanout(shards, func(sh *Shard) bool {
		return sh.Do(name, func(th *sim.Thread) { body(sh, th) })
	}) {
		c.halted = true
	}
	return c.halted
}

// commit runs the cross-shard commit protocol for a wave: durable
// prepare records on every writer, the coordinator's decision records
// on shard 0 causally after every prepare, then mark-first apply of the
// admitted transactions on every writer. It is the only code that logs
// prepare and decision records; the canned driver and SubmitCross both
// come through here. A halt stops the protocol after the phase that
// observed it and leaves c.halted set; each transaction's decided flag
// then tells whether its fate is already durable.
func (c *Cluster) commit(wave []*crossTx) {
	writers := c.writers(wave)

	// Phase 1: durable prepare — each transaction's write images
	// (RecWrite per line) then its RecPrepare mark on ring 0, a prepared
	// write set invisible to local replay until a mark commits it.
	if c.phase(writers, "2pc.prepare", func(sh *Shard, th *sim.Thread) {
		ring := sh.m.RedoLog(0)
		for _, tx := range wave {
			ws := tx.writes[sh.id]
			if len(ws) == 0 {
				continue
			}
			for _, w := range ws {
				ring.Append(wal.Record{Type: wal.RecWrite, TxID: tx.gid, Addr: w.Addr, Data: w.Img})
				th.Advance(prepareLatPerRec)
			}
			ring.Append(wal.Record{Type: wal.RecPrepare, TxID: tx.gid})
			th.Advance(prepareLatPerRec)
			sh.hit(PointPrepareLogged)
		}
	}) {
		return
	}

	// Phase 2: one durable decision record per transaction in GID order
	// (RecCommit for admitted, RecAbort for conflict-aborted), at a
	// virtual time after every prepare plus a coordination hop.
	tmax := c.maxNow()
	if c.phase(c.shards[:1], "2pc.decide", func(sh *Shard, th *sim.Thread) {
		advanceTo(th, tmax)
		th.Advance(coordHopLat)
		for _, tx := range wave {
			typ := wal.RecCommit
			if !tx.admitted {
				typ = wal.RecAbort
			}
			c.decLog.Append(wal.Record{Type: typ, TxID: tx.gid, LSN: tx.seq})
			tx.decided = true
			if !tx.admitted {
				c.decidedAbort[tx.seq] = true
			}
			th.Advance(decisionLatPerTx)
			sh.hit(PointDecisionLogged)
		}
	}) {
		return
	}
	for _, tx := range wave {
		if tx.admitted {
			c.crossCommits++
		} else {
			c.crossAborts++
		}
	}

	// Phase 3: apply the committed transactions on every writer, after
	// the decision plus the return hop.
	tdec := c.shards[0].eng.Now()
	c.phase(writers, "2pc.apply", func(sh *Shard, th *sim.Thread) {
		advanceTo(th, tdec)
		th.Advance(coordHopLat)
		for _, tx := range wave {
			if ws := tx.writes[sh.id]; tx.admitted && len(ws) > 0 {
				sh.apply(tx.gid, ws, th)
			}
		}
	})
}

// apply completes one decided-commit transaction on sh: the durable
// apply mark first (so a torn apply is completed by local replay from
// the prepare records), then each prepared image in place, then the
// machine's commit bookkeeping. The protocol's apply phase passes its
// simulated thread, which is charged per line and fires the apply
// injection points; recovery's completion pass passes nil and does
// neither.
func (sh *Shard) apply(gid uint64, ws []LineWrite, th *sim.Thread) {
	if th != nil {
		sh.hit(PointApplyMark)
	}
	sh.m.RedoLog(0).Append(wal.Record{Type: wal.RecCommit, TxID: gid, LSN: sh.m.NextLSN()})
	st := sh.m.Store()
	writes := make(map[mem.Addr]mem.Line, len(ws))
	for _, w := range ws {
		if th != nil {
			sh.hit(PointApplyLine)
		}
		img := w.Img
		st.WriteLine(w.Addr, &img)
		st.PersistLine(w.Addr, &img)
		writes[w.Addr] = img
		if th != nil {
			th.Advance(applyLatPerLine)
		}
	}
	sh.m.NoteCommit(gid, 0, writes)
}

// resolve durably advances the resolution cell to seq — every cross
// transaction with sequence <= seq is fully applied (or decided-abort)
// everywhere — then truncates the decision log, whose records are now
// redundant with the cell. It reports a halt.
func (c *Cluster) resolve(seq uint64) bool {
	return c.phase(c.shards[:1], "2pc.resolve", func(sh *Shard, th *sim.Thread) {
		st := sh.m.Store()
		sh.hit(PointResolveCkpt)
		st.WriteU64(c.cellAddr, seq)
		ln := st.PeekLine(c.cellAddr)
		st.PersistLine(c.cellAddr, &ln)
		th.Advance(decisionLatPerTx)
		c.decLog.Reclaim(c.decLog.Head())
		c.resolvedSeq = seq
	})
}

// maxNow returns the latest virtual time across shards.
func (c *Cluster) maxNow() sim.Time {
	var t sim.Time
	for _, sh := range c.shards {
		if now := sh.eng.Now(); now > t {
			t = now
		}
	}
	return t
}

// advanceTo moves th forward to at (no-op when already past it).
func advanceTo(th *sim.Thread, at sim.Time) {
	if d := at - th.Clock(); d > 0 {
		th.Advance(d)
	}
}
