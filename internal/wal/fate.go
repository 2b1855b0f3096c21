package wal

// The fate summary is a volatile, per-ring transaction table in the
// spirit of ARIES: one fixed-size entry per contiguous record group (a
// run of consecutive records of one transaction), updated on every
// Append, so background reclamation finds the disposable prefix without
// decoding a single record. It is never persisted; Resync rebuilds it
// from the durable window recovery already decodes, so reclamation
// still acts on durable evidence only.
//
// A transaction's fate is the union of its marks across the window.
// Marks normally land in the group they close (a local commit's writes
// and RecCommit are appended back to back), but two cases split a
// transaction across groups: a 2PC prepare group whose apply mark
// arrives later, behind other transactions' records, and — after a
// crash — a group broken by a torn slot. A group that is closed while
// it still lacks a commit or abort mark is therefore indexed by
// transaction, so a later mark reaches it in O(1). Per-append work is
// constant and memory is proportional to the live groups. The summary
// assumes no record of a transaction follows its commit or abort mark
// on the same ring, which every logging protocol here upholds.

const (
	fateCommitted uint8 = 1 << iota
	fateAborted
	fatePrepared
	fateTorn // an undecodable slot found by Resync: never disposable
	fateCkpt // checkpoint records: never marked, so never indexed
)

// group is one summary entry.
type group struct {
	tx  uint64
	end uint64 // ring sequence one past the group's last record
	// lsn is the commit LSN once the group is committed. Before that, on
	// an indexed group, it links to the next older indexed group of the
	// same transaction (its absolute number + 1; 0 ends the chain).
	lsn   uint64
	flags uint8
}

// marked reports whether the group carries its final fate (a commit or
// abort mark) or can never get one (torn slots, checkpoint records).
func (g *group) marked() bool {
	return g.flags&(fateCommitted|fateAborted|fateTorn|fateCkpt) != 0
}

// fates is a ring's summary: a deque of groups addressed by absolute
// number (first is the oldest live group), plus the index of closed,
// still-unmarked groups.
type fates struct {
	buf   []group // circular; len is zero or a power of two
	first uint64
	n     uint64
	open  map[uint64]uint64 // tx → absolute number + 1 of its newest indexed group
}

func (f *fates) at(abs uint64) *group { return &f.buf[abs&uint64(len(f.buf)-1)] }

// last returns the newest group, or nil when the summary is empty.
func (f *fates) last() *group {
	if f.n == 0 {
		return nil
	}
	return f.at(f.first + f.n - 1)
}

// push appends g, growing the deque when full, and returns the stored
// entry.
func (f *fates) push(g group) *group {
	if f.n == uint64(len(f.buf)) {
		nb := make([]group, max(16, 2*len(f.buf)))
		for i := uint64(0); i < f.n; i++ {
			nb[(f.first+i)&uint64(len(nb)-1)] = *f.at(f.first + i)
		}
		f.buf = nb
	}
	f.n++
	p := f.at(f.first + f.n - 1)
	*p = g
	return p
}

// close retires the newest group as the current append target: an
// unmarked one is indexed so its transaction's later mark can reach it.
func (f *fates) close() {
	g := f.last()
	if g == nil || g.marked() {
		return
	}
	if f.open == nil {
		f.open = make(map[uint64]uint64)
	}
	g.lsn = f.open[g.tx]
	f.open[g.tx] = f.first + f.n // absolute number of g, plus one
}

// note records the record of type typ for tx appended at ring sequence
// seq.
func (f *fates) note(tx uint64, typ RecordType, lsn, seq uint64) {
	g := f.last()
	if g == nil || g.tx != tx || g.flags&fateTorn != 0 {
		f.close()
		g = f.push(group{tx: tx})
	}
	g.end = seq + 1
	switch typ {
	case RecCommit:
		f.mark(g, fateCommitted, lsn)
	case RecAbort:
		f.mark(g, fateAborted, 0)
	case RecPrepare:
		f.mark(g, fatePrepared, 0)
	case RecCkptBegin, RecCkptActive, RecCkptEnd:
		g.flags |= fateCkpt
	}
}

// noteTorn records an undecodable slot at seq (Resync only).
func (f *fates) noteTorn(seq uint64) {
	if g := f.last(); g != nil && g.flags&fateTorn != 0 {
		g.end = seq + 1
		return
	}
	f.close()
	f.push(group{end: seq + 1, flags: fateTorn})
}

// mark ORs flag into the newest group g and every indexed group of the
// same transaction; a commit or abort mark also stamps the LSN and
// retires the transaction from the index.
func (f *fates) mark(g *group, flag uint8, lsn uint64) {
	g.flags |= flag
	if flag == fateCommitted {
		g.lsn = lsn
	}
	if len(f.open) == 0 {
		return
	}
	link, ok := f.open[g.tx]
	if !ok {
		return
	}
	final := flag != fatePrepared
	for link > f.first {
		og := f.at(link - 1)
		og.flags |= flag
		link = og.lsn
		if final {
			og.lsn = lsn
		}
	}
	if final {
		delete(f.open, g.tx)
	}
}

// truncate drops every group that ends at or below seq.
func (f *fates) truncate(seq uint64) {
	for f.n > 0 {
		g := f.at(f.first)
		if g.end > seq {
			return
		}
		if !g.marked() && f.open[g.tx] == f.first+1 {
			// The newest indexed group of its transaction: older ones
			// are gone already, so the whole chain is.
			delete(f.open, g.tx)
		}
		f.first++
		f.n--
	}
}

// abandon marks every group that is still unmarked and unprepared
// aborted, and drops their transactions from the index (Resync only).
// Such a group belongs to a local transaction caught mid-commit by the
// crash: replay discards it and no pre-crash transaction can append its
// mark after recovery, so left unmarked it would stop every later
// DisposablePrefix walk for good. Prepared 2PC groups still wait for
// their apply mark or resolver.
func (f *fates) abandon() {
	for abs := f.first; abs < f.first+f.n; abs++ {
		if g := f.at(abs); !g.marked() && g.flags&fatePrepared == 0 {
			g.flags |= fateAborted
		}
	}
	for tx, link := range f.open {
		if f.at(link-1).flags&fateAborted != 0 {
			delete(f.open, tx)
		}
	}
}

// reset empties the summary, keeping its buffer.
func (f *fates) reset() {
	f.first, f.n = 0, 0
	clear(f.open)
}

// disposable reports whether the group is dead once every commit at or
// below low is persisted in place: its transaction aborted without
// committing, committed at or below low, or is 2PC-prepared without a
// local mark and resolve (nil: never) says its fate is durably decided
// elsewhere. Groups with no mark (mid-commit, undecided, torn) must
// survive.
func (g *group) disposable(low uint64, resolve func(txID uint64) bool) bool {
	switch {
	case g.flags&fateAborted != 0 && g.flags&fateCommitted == 0:
		return true
	case g.flags&fateCommitted != 0:
		return g.lsn <= low
	case g.flags&fatePrepared != 0:
		return resolve != nil && resolve(g.tx)
	}
	return false
}

// DisposablePrefix returns the end of the ring's disposable prefix: the
// sequence number up to which every record group is dead (see
// group.disposable). The walk stops at the first group that must
// survive, so truncating there never splits a group. It reads the fate
// summary only — no record is decoded — and costs O(groups truncated).
func (l *Log) DisposablePrefix(low uint64, resolve func(txID uint64) bool) uint64 {
	f := &l.fates
	stop := l.tail
	for abs := f.first; abs < f.first+f.n; abs++ {
		g := f.at(abs)
		if !g.disposable(low, resolve) {
			break
		}
		stop = g.end
	}
	return stop
}
