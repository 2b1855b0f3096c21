package shard

import (
	"uhtm/internal/mem"
)

// This file is the serving-facing surface of the cluster: where the
// canned workload driver (Run/buildWave) fabricates its own
// transactions, a long-lived server routes externally arriving requests
// — single-shard batches through each shard's session, multi-shard
// MULTI…EXEC batches through SubmitCross — and recovers the whole
// cluster with Recover after any power failure.

// NewServing builds a cluster for a serving front-end: shards with
// engines, machines and sessions but no canned NVM pools and no
// tracers. With more than one shard the coordinator decision area is
// reserved on every shard (rings stay identically sized) and the
// decision log and resolution cell are placed on shard 0; with exactly
// one shard nothing is reserved, so the machine is bit-for-bit the one
// a single-machine server would build — the -shards 1 equivalence the
// server tests pin.
func NewServing(cfg Config) *Cluster {
	cfg = cfg.normalized()
	reserve := mem.Addr(0)
	if cfg.Shards > 1 {
		reserve = DecisionReserve
	}
	return newCluster(cfg, reserve, false)
}

// ShardOf maps a key to its home shard: a splitmix64-style finalizer
// (the same construction internal/txds uses for bucket hashing) over
// the key, reduced mod shards. Deterministic across processes, so a
// load generator can predict routing.
func ShardOf(key uint64, shards int) int {
	if shards <= 1 {
		return 0
	}
	x := key + 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	x ^= x >> 31
	return int(x % uint64(shards))
}

// SubmitCross commits one externally executed cross-shard transaction
// as a one-transaction wave of the canned driver's commit protocol,
// firing the same injection points, then advances the resolution cell
// (ring reclamation is left to the shards' ordinary checkpoints — replay
// of an already-applied cross transaction is idempotent). writes holds
// one line-granular write set per shard, empty for shards the
// transaction did not write. There is no admission control: the caller
// serializes cross transactions, so every written transaction is
// decided commit. A transaction with no writes skips the protocol.
//
// decided reports whether the commit decision is durable; halted
// reports an injected crash. A halted-but-decided transaction completes
// on every writer during Recover, so the caller may still acknowledge
// it; a halted undecided one vanishes everywhere.
func (c *Cluster) SubmitCross(writes [][]LineWrite) (decided, halted bool) {
	if c.decLog == nil {
		panic("shard: SubmitCross on a single-shard cluster")
	}
	if len(writes) != len(c.shards) {
		panic("shard: SubmitCross needs one write set per shard")
	}
	c.seq++
	tx := &crossTx{gid: GIDBase | c.seq, seq: c.seq, writes: writes, admitted: true}
	wave := []*crossTx{tx}
	if len(c.writers(wave)) == 0 {
		return false, false // read-only: nothing to decide or apply
	}
	if c.commit(wave); !c.halted {
		c.resolve(tx.seq)
	}
	return tx.decided, c.halted
}
