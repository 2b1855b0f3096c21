package shard

import (
	"fmt"
	"sort"

	"uhtm/internal/core"
	"uhtm/internal/mem"
	"uhtm/internal/wal"
)

// Recovery reports what cross-shard crash recovery found and did.
type Recovery struct {
	// PerShard is each machine's local recovery summary (core.Recover):
	// replay counts plus the measured scan/replay/persist phase stats.
	PerShard []core.RecoveryStats
	// Cell is the durable resolution cell: every GID sequence at or
	// below it was fully resolved (applied everywhere or decided-abort)
	// before the crash.
	Cell uint64
	// DecidedCommit / DecidedAbort hold the GID sequences whose decision
	// records were durable in the coordinator log at the crash.
	DecidedCommit map[uint64]bool
	DecidedAbort  map[uint64]bool
	// Completed counts (shard, GID) applies the completion pass finished
	// from durable prepare records; Noted counts applies local replay
	// had already finished and the pass only registered in the commit
	// log.
	Completed int
	Noted     int
}

// Recover performs cluster-wide crash recovery from durable evidence
// alone. Every shard's machine crashes (live image reverts to durable)
// and replays its own redo rings; then the coordinator's durable
// evidence — the resolution cell and the decision log — drives a
// completion pass that finishes every decided-commit transaction on
// every writer from its durable prepare images (RecWrite records carry
// the full line image, so no other source is needed) and leaves no
// trace of undecided or decided-abort ones. The GID sequence is bumped
// past every durably observed sequence so new transactions never reuse
// an ID, and the cluster accepts work again once its sessions restart.
//
// Correctness leans on the phase ordering of commit: a durable decision
// implies every writer's prepare records were durable first; an absent
// decision implies no writer ever logged an apply mark; a GID at or
// below the cell implies every writer applied and registered it before
// the crash.
func (c *Cluster) Recover() Recovery {
	rec := Recovery{
		DecidedCommit: make(map[uint64]bool),
		DecidedAbort:  make(map[uint64]bool),
	}

	// Power failure on every shard.
	for _, sh := range c.shards {
		sh.m.Crash()
	}

	// Coordinator evidence, read from shard 0's durable image (after
	// Crash the live image is the durable one); the decision log's
	// window is resynced from its durable control block on the way.
	maxSeq := c.seq
	if c.decLog != nil {
		rec.Cell = c.shards[0].m.Store().ReadU64(c.cellAddr)
		maxSeq = max(maxSeq, rec.Cell)
		decs, _ := c.decLog.Resync()
		for _, r := range decs {
			switch r.Type {
			case wal.RecCommit:
				rec.DecidedCommit[r.LSN] = true
			case wal.RecAbort:
				rec.DecidedAbort[r.LSN] = true
			}
			maxSeq = max(maxSeq, r.LSN)
		}
	}

	// Per-shard durable evidence, collected before local replay appends
	// anything: apply marks and prepare images per GID. A later RecWrite
	// for the same line overrides an earlier one, matching replay order.
	durMark := make([]map[uint64]bool, len(c.shards))
	intents := make([]map[uint64][]LineWrite, len(c.shards))
	for k, sh := range c.shards {
		durMark[k] = make(map[uint64]bool)
		intents[k] = make(map[uint64][]LineWrite)
		for _, r := range sh.m.DurableRedoRecords() {
			if r.TxID < GIDBase {
				continue
			}
			maxSeq = max(maxSeq, r.TxID&^GIDBase)
			switch r.Type {
			case wal.RecCommit:
				durMark[k][r.TxID] = true
			case wal.RecWrite:
				intents[k][r.TxID] = append(intents[k][r.TxID], LineWrite{Addr: r.Addr, Img: r.Data})
			}
		}
	}

	// Local replay per shard: completes every transaction — local or
	// cross — whose commit/apply mark was durable.
	for _, sh := range c.shards {
		rec.PerShard = append(rec.PerShard, sh.m.Recover())
	}

	// Completion pass over decided commits above the cell, in sequence
	// order. A shard with neither mark nor prepare records was not a
	// writer of that transaction, so it is skipped; one whose commit log
	// already holds the GID applied and registered it before the crash.
	var seqs []uint64
	for s := range rec.DecidedCommit {
		if s > rec.Cell {
			seqs = append(seqs, s)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, s := range seqs {
		gid := GIDBase | s
		for k, sh := range c.shards {
			ws := dedupLineWrites(intents[k][gid])
			if (!durMark[k][gid] && len(ws) == 0) || inCommitLog(sh, gid) {
				continue
			}
			if durMark[k][gid] {
				// Local replay already applied the images; only register.
				writes := make(map[mem.Addr]mem.Line, len(ws))
				for _, w := range ws {
					writes[w.Addr] = w.Img
				}
				sh.m.NoteCommit(gid, 0, writes)
				rec.Noted++
			} else {
				sh.apply(gid, ws, nil)
				rec.Completed++
			}
		}
	}
	c.seq = maxSeq
	c.mergeDecisionState(rec)
	c.halted = false
	return rec
}

// mergeDecisionState refreshes the cluster's in-memory mirror of the
// coordinator's durable decision state after recovery, so the shards'
// prepare resolvers answer from what actually survived the crash rather
// than pre-crash volatile state.
func (c *Cluster) mergeDecisionState(rec Recovery) {
	if c.decidedAbort == nil {
		return
	}
	clear(c.decidedAbort)
	for s := range rec.DecidedAbort {
		c.decidedAbort[s] = true
	}
	c.resolvedSeq = rec.Cell
}

// dedupLineWrites collapses repeated images of the same line to the
// last one, preserving first-seen line order (replay-equivalent).
func dedupLineWrites(ws []LineWrite) []LineWrite {
	if len(ws) < 2 {
		return ws
	}
	idx := make(map[mem.Addr]int, len(ws))
	out := ws[:0:0]
	for _, w := range ws {
		if i, ok := idx[w.Addr]; ok {
			out[i] = w
			continue
		}
		idx[w.Addr] = len(out)
		out = append(out, w)
	}
	return out
}

// VerifyAtomicity checks cluster-wide 2PC atomicity after Recover: every
// cross transaction Run issued is applied on all of its participants iff
// it was durably decided commit (or resolved at or below the cell and
// admitted), and on none otherwise. It returns "" when that holds, else
// the first violation. It is the cluster half of the crash sweep's
// check; the per-shard half is the committed-prefix oracle.
func (c *Cluster) VerifyAtomicity(rec Recovery) string {
	for _, tx := range c.waves {
		expect := rec.DecidedCommit[tx.seq] || (tx.seq <= rec.Cell && tx.admitted)
		for s, ws := range tx.writes {
			if len(ws) == 0 {
				continue
			}
			applied := inCommitLog(c.shards[s], tx.gid)
			if expect && !applied {
				return fmt.Sprintf("cross tx %s missing on shard %d after recovery", tx, s)
			}
			if !expect && applied {
				return fmt.Sprintf("cross tx %s applied on shard %d without a durable commit decision", tx, s)
			}
		}
	}
	return ""
}

// inCommitLog reports whether the machine's tracked commit log contains
// id (requires core.Options.TrackCommits).
func inCommitLog(sh *Shard, id uint64) bool {
	for _, ce := range sh.m.CommitLog() {
		if ce.ID == id {
			return true
		}
	}
	return false
}
