package crash

import (
	"fmt"
	"sort"

	"uhtm/internal/core"
	"uhtm/internal/mem"
	"uhtm/internal/wal"
)

// The committed-prefix oracle: the one image comparison every crash
// consumer runs — the sweep's verify (after its sweep-only checks on
// acked transactions, mid-commit intents and DRAM), the cluster sweep
// per shard, and the server's kill-and-restart tests. It reconstructs
// mid-commit write images from the durable redo records, so it needs
// nothing beyond the machine and the pre-workload baseline.

// Baseline deep-copies the durable NVM data image (log areas excluded).
// Capture it before running the workload whose recovery will be
// verified, and after any non-transactional formatting/prepopulation.
func Baseline(m *core.Machine) map[mem.Addr]mem.Line {
	out := make(map[mem.Addr]mem.Line)
	for a, l := range m.Store().SnapshotDurable() {
		if dataNVM(a) {
			out[a] = l
		}
	}
	return out
}

// VerifyRecovered checks a machine that has already crashed and
// recovered (core.Machine.Crash + Recover, logs not yet reclaimed)
// against the committed-prefix oracle: the durable NVM data image must
// equal baseline, plus every tracked commit in commit order, plus any
// mid-commit transaction whose commit mark went durable before the
// failure (its write image reconstructed from its durable redo
// records). cores bounds how many mid-commit transactions are possible
// (one per core). Requires Options.TrackCommits on the machine.
//
// It returns "" when every invariant holds, else a description of the
// violation. It does not check that DRAM is empty — callers may already
// have rebuilt volatile indexes.
func VerifyRecovered(m *core.Machine, cores int, baseline map[mem.Addr]mem.Line) string {
	committed := make(map[uint64]bool)
	for _, c := range m.CommitLog() {
		committed[c.ID] = true
	}

	// Durable log inspection: commit marks above the checkpoint, abort
	// marks, and per-transaction write images (redo records carry the
	// new line value, so a mid-commit transaction's intent is exactly
	// its durable RecWrite set).
	ckpt := m.Checkpoint()
	durable := make(map[uint64]uint64) // txID → commit LSN
	abortedD := make(map[uint64]bool)
	intents := make(map[uint64]map[mem.Addr]mem.Line)
	for _, r := range m.DurableRedoRecords() {
		switch r.Type {
		case wal.RecCommit:
			if _, ok := durable[r.TxID]; !ok && r.LSN > ckpt {
				durable[r.TxID] = r.LSN
			}
		case wal.RecAbort:
			abortedD[r.TxID] = true
		case wal.RecWrite:
			if !dataNVM(r.Addr) {
				return fmt.Sprintf("redo record for tx %d addresses non-NVM-data line %#x", r.TxID, uint64(r.Addr))
			}
			w := intents[r.TxID]
			if w == nil {
				w = make(map[mem.Addr]mem.Line)
				intents[r.TxID] = w
			}
			w[r.Addr] = r.Data
		}
	}
	for id := range abortedD {
		if _, ok := durable[id]; ok || committed[id] {
			return fmt.Sprintf("tx %d has both abort and commit marks", id)
		}
	}

	// Mid-commit transactions: durable commit mark, never registered in
	// the commit log. At most one per core; disjoint write sets.
	var mid []uint64
	for id := range durable {
		if !committed[id] {
			mid = append(mid, id)
		}
	}
	if len(mid) > cores {
		return fmt.Sprintf("%d mid-commit txs have durable commit marks (at most %d cores)", len(mid), cores)
	}
	sort.Slice(mid, func(i, j int) bool { return durable[mid[i]] < durable[mid[j]] })

	// Committed-prefix image: baseline, each tracked commit in order,
	// then the durable-marked mid-commit transactions.
	expected := make(map[mem.Addr]mem.Line, len(baseline))
	for a, l := range baseline {
		expected[a] = l
	}
	for _, c := range m.CommitLog() {
		for la, ln := range c.Writes {
			if dataNVM(la) {
				expected[la] = ln
			}
		}
	}
	for _, id := range mid {
		for la, ln := range intents[id] {
			expected[la] = ln
		}
	}

	got := make(map[mem.Addr]mem.Line)
	for a, l := range m.Store().SnapshotDurable() {
		if dataNVM(a) {
			got[a] = l
		}
	}
	for a, want := range expected {
		if got[a] != want {
			return fmt.Sprintf("line %#x: durable %x, oracle %x", uint64(a), got[a], want)
		}
	}
	for a, g := range got {
		if _, ok := expected[a]; !ok && g != (mem.Line{}) {
			return fmt.Sprintf("line %#x: unexpected durable data %x", uint64(a), g)
		}
	}
	return ""
}
