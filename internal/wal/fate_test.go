package wal

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"uhtm/internal/mem"
)

// oracleDisposable is the decode-based reclamation walk the fate
// summary replaces, kept as the reference: a first pass decodes every
// live record and folds each transaction's marks, a second walks from
// the tail and stops at the first record that must survive (or cannot
// be decoded). Transactions in dead were left unmarked and unprepared in
// a window rebuilt by Resync: they can never commit, so they count as
// aborted.
func oracleDisposable(l *Log, low uint64, resolve func(uint64) bool, dead map[uint64]bool) uint64 {
	type fate struct {
		lsn                          uint64
		committed, aborted, prepared bool
	}
	fates := map[uint64]fate{}
	for seq := l.Tail(); seq < l.Head(); seq++ {
		r, ok := l.Read(seq)
		if !ok {
			continue
		}
		f := fates[r.TxID]
		switch r.Type {
		case RecCommit:
			f.committed, f.lsn = true, r.LSN
		case RecAbort:
			f.aborted = true
		case RecPrepare:
			f.prepared = true
		}
		fates[r.TxID] = f
	}
	stop := l.Tail()
	for seq := stop; seq < l.Head(); seq++ {
		r, ok := l.Read(seq)
		if !ok {
			break
		}
		f := fates[r.TxID]
		disposable := false
		switch {
		case (f.aborted || dead[r.TxID]) && !f.committed:
			disposable = true
		case f.committed:
			disposable = f.lsn <= low
		case f.prepared:
			disposable = resolve != nil && resolve(r.TxID)
		}
		if !disposable {
			break
		}
		stop = seq + 1
	}
	return stop
}

// fateSim drives one ring through a random mix of the logging protocols
// that share a redo ring: local commits and aborts, transactions still
// mid-commit, and 2PC prepare groups whose apply mark arrives later
// behind other records (or never, when the coordinator decides abort).
type fateSim struct {
	t        *testing.T
	rng      *rand.Rand
	s        *mem.Store
	l        *Log
	nextTx   uint64
	lsn      uint64
	inflight []uint64        // local transactions with writes but no mark yet
	prepared []uint64        // prepare groups awaiting an apply mark
	decided  map[uint64]bool // prepares the resolver reports decided
	dead     map[uint64]bool // unmarked, unprepared at a Resync: never commit
	passes   int
	crashed  bool // a Resync has happened
	// resyncedTruncations counts passes after a Resync that truncated
	// something: the rebuilt summary at work, not just its first group.
	resyncedTruncations int
}

func (fs *fateSim) resolve(tx uint64) bool { return fs.decided[tx] }

func (fs *fateSim) room(n int) bool { return fs.l.Len()+uint64(n) <= fs.l.Slots() }

func (fs *fateSim) writes(tx uint64, n int) {
	for i := 0; i < n; i++ {
		fs.l.Append(Record{Type: RecWrite, TxID: tx, Addr: mem.NVMBase + mem.Addr(fs.rng.Intn(64))*mem.LineSize})
	}
}

func (fs *fateSim) commit(tx uint64) {
	fs.lsn++
	fs.l.Append(Record{Type: RecCommit, TxID: tx, LSN: fs.lsn})
}

// take removes and returns a random element of *s.
func (fs *fateSim) take(s *[]uint64) uint64 {
	i := fs.rng.Intn(len(*s))
	tx := (*s)[i]
	*s = append((*s)[:i], (*s)[i+1:]...)
	return tx
}

// step performs one random protocol action.
func (fs *fateSim) step() {
	n := 1 + fs.rng.Intn(3)
	switch op := fs.rng.Intn(10); {
	case op < 3 && fs.room(n+1): // local commit, back to back
		fs.nextTx++
		fs.writes(fs.nextTx, n)
		fs.commit(fs.nextTx)
	case op < 4 && fs.room(1): // abort mark
		fs.nextTx++
		fs.l.Append(Record{Type: RecAbort, TxID: fs.nextTx})
	case op < 5 && fs.room(n): // start a commit, mark it later
		fs.nextTx++
		fs.writes(fs.nextTx, n)
		fs.inflight = append(fs.inflight, fs.nextTx)
	case op < 6 && len(fs.inflight) > 0 && fs.room(1):
		fs.commit(fs.take(&fs.inflight))
	case op < 7 && fs.room(n+1): // 2PC prepare group
		fs.nextTx++
		fs.writes(fs.nextTx, n)
		fs.l.Append(Record{Type: RecPrepare, TxID: fs.nextTx})
		fs.prepared = append(fs.prepared, fs.nextTx)
	case op < 8 && len(fs.prepared) > 0 && fs.room(1): // apply mark
		fs.commit(fs.take(&fs.prepared))
	case op < 9 && len(fs.prepared) > 0: // coordinator decides abort
		fs.decided[fs.take(&fs.prepared)] = true
	default:
		fs.pass()
	}
}

// pass compares the summary's truncation point with the oracle's at a
// random low-water mark, then truncates there as reclamation does.
func (fs *fateSim) pass() {
	fs.passes++
	low := uint64(fs.rng.Int63n(int64(fs.lsn) + 2))
	want := oracleDisposable(fs.l, low, fs.resolve, fs.dead)
	got := fs.l.DisposablePrefix(low, fs.resolve)
	if got != want {
		fs.t.Fatalf("pass %d (low=%d, window [%d,%d)): summary truncates at %d, oracle at %d\n%s",
			fs.passes, low, fs.l.Tail(), fs.l.Head(), got, want, fs.dump())
	}
	if fs.crashed && got > fs.l.Tail() {
		fs.resyncedTruncations++
	}
	fs.l.Reclaim(got)
}

func (fs *fateSim) dump() string {
	out := ""
	f := &fs.l.fates
	for abs := f.first; abs < f.first+f.n; abs++ {
		out += fmt.Sprintf("  group %d: %+v\n", abs, *f.at(abs))
	}
	return out
}

// crash models a power failure: optionally a record whose control-block
// update never became durable (the in-memory head one past the durable
// one) and a torn slot inside the durable window, then Resync. Local
// transactions caught mid-commit are gone for good and become dead, as
// does a prepare whose RecPrepare mark was torn (no coordinator can
// decide to commit it); the other prepares survive and may still be
// applied or decided.
func (fs *fateSim) crash() {
	if fs.rng.Intn(2) == 0 && fs.room(1) {
		head := fs.l.head
		fs.nextTx++
		fs.l.Append(Record{Type: RecWrite, TxID: fs.nextTx})
		fs.l.head = head
		fs.l.writeCtrl()
		fs.l.head = head + 1
	}
	// A torn slot blocks truncation for good, so tear only some windows.
	// A slot torn by an earlier crash stays torn: flipping its byte again
	// would heal it.
	if fs.l.Len() > 0 && fs.rng.Intn(4) == 0 {
		seq := fs.l.Tail() + uint64(fs.rng.Int63n(int64(fs.l.Len())))
		if _, ok := fs.l.Read(seq); ok {
			corruptDurable(fs.s, fs.l.slotAddr(seq)+24)
		}
	}
	fs.s.Crash()
	durHead, durTail := fs.l.RecoverWindow()
	recs, torn := fs.l.Resync()
	if fs.l.Head() != durHead || fs.l.Tail() != durTail {
		fs.t.Fatalf("Resync window [%d,%d), durable [%d,%d)", fs.l.Tail(), fs.l.Head(), durTail, durHead)
	}
	if uint64(len(recs)+torn) != fs.l.Len() {
		fs.t.Fatalf("Resync decoded %d+%d torn slots of a %d-record window", len(recs), torn, fs.l.Len())
	}
	marks := map[uint64]bool{}
	for _, r := range recs {
		if r.Type != RecWrite {
			marks[r.TxID] = true
		}
	}
	for _, r := range recs {
		if !marks[r.TxID] {
			fs.dead[r.TxID] = true
		}
	}
	fs.prepared = slices.DeleteFunc(fs.prepared, func(tx uint64) bool { return fs.dead[tx] })
	fs.inflight = fs.inflight[:0]
	fs.crashed = true
	fs.pass()
}

// TestFateSummaryMatchesDecodeWalk is the differential test of the fate
// summary against the decode-based walk it replaced: over seeded random
// protocol histories — including windows rebuilt by Resync around a
// torn slot and a non-durable append — the truncation point must be
// identical at every reclamation pass.
func TestFateSummaryMatchesDecodeWalk(t *testing.T) {
	seeds, steps := 200, 400
	if testing.Short() {
		seeds = 40
	}
	resynced := 0
	for seed := 0; seed < seeds; seed++ {
		s := newStore()
		fs := &fateSim{
			t:       t,
			rng:     rand.New(rand.NewSource(int64(seed))),
			s:       s,
			l:       NewLog(s, mem.NVMLogBase, ctrlSize+48*RecordSize, true),
			decided: map[uint64]bool{},
			dead:    map[uint64]bool{},
		}
		for i := 0; i < steps; i++ {
			if fs.rng.Intn(60) == 0 {
				fs.crash()
				continue
			}
			fs.step()
			if !fs.room(4) {
				// Ring nearly full: everything pending gets decided, so
				// a pass can make room.
				for _, tx := range fs.prepared {
					fs.decided[tx] = true
				}
				fs.prepared = fs.prepared[:0]
				for len(fs.inflight) > 0 && fs.room(1) {
					fs.commit(fs.take(&fs.inflight))
				}
				fs.pass()
			}
		}
		resynced += fs.resyncedTruncations
	}
	if resynced == 0 {
		t.Error("no pass truncated a window rebuilt by Resync")
	}
	t.Logf("%d truncating passes over resynced windows", resynced)
}

// TestFateSummaryReachesSplitGroups pins the two cases where one
// transaction's records are not contiguous: a prepare group whose apply
// mark lands behind other groups, and a group split by a torn slot
// found at Resync. The later mark must reach every earlier group.
func TestFateSummaryReachesSplitGroups(t *testing.T) {
	s := newStore()
	l := NewLog(s, mem.NVMLogBase, 1<<16, true)
	l.Append(Record{Type: RecWrite, TxID: 7})
	l.Append(Record{Type: RecWrite, TxID: 7})
	l.Append(Record{Type: RecWrite, TxID: 7})
	l.Append(Record{Type: RecPrepare, TxID: 7})
	l.Append(Record{Type: RecWrite, TxID: 8})
	l.Append(Record{Type: RecCommit, TxID: 8, LSN: 1})
	if got := l.DisposablePrefix(1, nil); got != 0 {
		t.Fatalf("undecided prepare truncated: prefix %d, want 0", got)
	}
	// Tear the prepare group's middle write: after Resync tx 7 is two
	// groups around a torn slot, and neither may be truncated past it.
	corruptDurable(s, l.slotAddr(1)+24)
	s.Crash()
	l.Resync()
	l.Append(Record{Type: RecCommit, TxID: 7, LSN: 2})
	first := l.fates.at(l.fates.first)
	if want := (group{tx: 7, end: 1, lsn: 2, flags: fateCommitted | fatePrepared}); *first != want {
		t.Errorf("group before the torn slot: %+v, want %+v", *first, want)
	}
	if got, want := l.DisposablePrefix(2, nil), uint64(1); got != want {
		t.Errorf("prefix %d, want %d (stop at the torn slot)", got, want)
	}
	if got, want := l.DisposablePrefix(2, nil), oracleDisposable(l, 2, nil, nil); got != want {
		t.Errorf("prefix %d, oracle %d", got, want)
	}
}

// TestResyncAbandonsMidCommitGroups pins Resync's rule for groups that
// can never be marked: a local transaction's writes without a commit or
// abort mark are dead after recovery, wherever they sit in the window,
// while a prepare group still waits for its apply mark. Abandoned
// groups also leave the transaction index, so it holds only groups
// that can still be marked.
func TestResyncAbandonsMidCommitGroups(t *testing.T) {
	s := newStore()
	l := NewLog(s, mem.NVMLogBase, 1<<16, true)
	l.Append(Record{Type: RecWrite, TxID: 1}) // mid-commit at the crash
	l.Append(Record{Type: RecWrite, TxID: 2})
	l.Append(Record{Type: RecPrepare, TxID: 2})
	l.Append(Record{Type: RecWrite, TxID: 3}) // mid-commit at the crash
	l.Append(Record{Type: RecWrite, TxID: 4})
	l.Append(Record{Type: RecCommit, TxID: 4, LSN: 1})
	l.Append(Record{Type: RecWrite, TxID: 5}) // mid-commit, newest group
	s.Crash()
	l.Resync()
	if got, want := l.DisposablePrefix(1, nil), uint64(1); got != want {
		t.Errorf("prefix %d, want %d (past tx 1, stop at the undecided prepare)", got, want)
	}
	if len(l.fates.open) != 1 {
		t.Errorf("index holds %v, want only the prepared tx 2", l.fates.open)
	}
	l.Append(Record{Type: RecCommit, TxID: 2, LSN: 2})
	if got, want := l.DisposablePrefix(2, nil), l.Head(); got != want {
		t.Errorf("prefix %d after the apply mark, want the whole window %d", got, want)
	}
	if len(l.fates.open) != 0 {
		t.Errorf("index holds %v after the apply mark, want it empty", l.fates.open)
	}
}
