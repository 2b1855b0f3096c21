// Package wal implements the hardware logs of the paper's hybrid
// version management: an undo log in the reserved DRAM log area (old
// values of LLC-evicted DRAM lines, Section IV-B "DRAM Data") and a redo
// log in the reserved NVM log area (new values of transactional NVM
// lines, following the hardware-assisted logging design of [28]).
//
// Logs are rings of fixed-size records living *inside the simulated
// address space*, one ring per core (per-core logs, as in ATOM/DHTM
// [31], [30], keep reclamation a prefix operation). NVM log appends are
// persisted to the durable image line by line — the write-pending queue
// plus ADR makes an accepted log write durable, which is exactly the
// paper's durability point — so crash recovery reads real bytes back out
// of the durable image.
package wal

import (
	"fmt"
	"sort"

	"uhtm/internal/mem"
	"uhtm/internal/trace"
)

// RecordType tags a log record.
type RecordType uint8

const (
	// RecWrite carries a line image: the old value (undo log) or the
	// new value (redo log) of Addr.
	RecWrite RecordType = 1
	// RecCommit is the commit mark for TxID: all preceding RecWrite
	// records of that transaction are committed.
	RecCommit RecordType = 2
	// RecAbort marks TxID aborted; its RecWrite records are dead (redo)
	// or must be applied to roll back (undo).
	RecAbort RecordType = 3
	// RecPrepare is the 2PC prepare mark for a cross-shard transaction
	// (internal/shard): all preceding RecWrite records of TxID on this
	// ring are a durable prepared write set, but the transaction's fate
	// rests with the coordinator's decision record. Local replay ignores
	// it — a prepared-but-undecided group has no RecCommit and is
	// discarded like any uncommitted transaction.
	RecPrepare RecordType = 4
	// RecCkptBegin opens a fuzzy checkpoint record group (ARIES-style
	// begin_chkpt): TxID carries the checkpoint sequence number, LSN the
	// low-water commit LSN, Addr the dirty-line count, and Data[0:8] the
	// number of RecCkptActive records that follow.
	RecCkptBegin RecordType = 5
	// RecCkptActive is one active-transaction-table entry of a fuzzy
	// checkpoint: TxID is the in-flight transaction, LSN its commit-mark
	// LSN (0 when the mark is not yet logged).
	RecCkptActive RecordType = 6
	// RecCkptEnd closes a checkpoint group (end_chkpt), echoing the
	// begin record's sequence number and low-water LSN. A group without
	// a matching end record is torn and must be ignored in favor of the
	// previous complete one.
	RecCkptEnd RecordType = 7
)

// String names the record type for logs and dumps.
func (t RecordType) String() string {
	switch t {
	case RecWrite:
		return "write"
	case RecCommit:
		return "commit"
	case RecAbort:
		return "abort"
	case RecPrepare:
		return "prepare"
	case RecCkptBegin:
		return "ckpt.begin"
	case RecCkptActive:
		return "ckpt.active"
	case RecCkptEnd:
		return "ckpt.end"
	default:
		return fmt.Sprintf("RecordType(%d)", uint8(t))
	}
}

// Record is one log entry.
type Record struct {
	Type RecordType
	TxID uint64
	Addr mem.Addr // line address (RecWrite only)
	Data mem.Line // line image (RecWrite only)
	// LSN is the global commit sequence number stamped on RecCommit
	// records. The paper's memory controllers serialize concurrent log
	// appends into one log area, giving commits a total order; with
	// per-core rings the LSN preserves that order so cross-core writes
	// to the same line replay correctly.
	LSN uint64
}

// RecordSize is the on-"disk" footprint of an encoded record:
// 8 (type+magic) + 8 (txID) + 8 (addr) + 64 (data) + 8 (LSN) +
// 8 (checksum) = 104. Records span cache-line boundaries, so a power
// failure can persist some of a record's lines and not others; the
// trailing checksum makes every such torn write detectable at replay.
const RecordSize = 104

// payloadSize is the checksummed prefix of a record.
const payloadSize = RecordSize - 8

// recMagic guards against replaying garbage after a torn ring wrap.
const recMagic uint32 = 0x55AA17C3

// checksum is FNV-1a over the record payload. A memory controller would
// use ECC-grade CRC; any whole-buffer hash gives the property recovery
// needs — a record assembled from lines of two different writes (torn)
// or never fully written (truncated) fails verification.
func checksum(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}

// encode serializes r into a RecordSize-byte buffer.
func encode(r Record, buf *[RecordSize]byte) {
	putU32(buf[0:], recMagic)
	buf[4] = byte(r.Type)
	putU64(buf[8:], r.TxID)
	putU64(buf[16:], uint64(r.Addr))
	copy(buf[24:24+mem.LineSize], r.Data[:])
	putU64(buf[24+mem.LineSize:], r.LSN)
	putU64(buf[payloadSize:], checksum(buf[:payloadSize]))
}

// decode parses a RecordSize-byte buffer; ok is false when the magic is
// absent (unwritten space) or the checksum does not match the payload
// (a torn or truncated write — some but not all of the record's cache
// lines reached durability, or the slot holds a stale mix of two ring
// generations).
func decode(buf *[RecordSize]byte) (r Record, ok bool) {
	if getU32(buf[0:]) != recMagic {
		return Record{}, false
	}
	if getU64(buf[payloadSize:]) != checksum(buf[:payloadSize]) {
		return Record{}, false
	}
	r.Type = RecordType(buf[4])
	r.TxID = getU64(buf[8:])
	r.Addr = mem.Addr(getU64(buf[16:]))
	copy(r.Data[:], buf[24:24+mem.LineSize])
	r.LSN = getU64(buf[24+mem.LineSize:])
	return r, true
}

func putU32(b []byte, v uint32) {
	for i := 0; i < 4; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func getU32(b []byte) uint32 {
	var v uint32
	for i := 3; i >= 0; i-- {
		v = v<<8 | uint32(b[i])
	}
	return v
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func getU64(b []byte) uint64 {
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

// ctrlSize is the control block at the base of each ring: head and tail
// (monotonic record sequence numbers), persisted alongside the data so
// recovery can find the live window.
const ctrlSize = mem.LineSize

// Log is one per-core log ring.
type Log struct {
	store   *mem.Store
	base    mem.Addr // control block address
	data    mem.Addr // first record slot
	slots   uint64   // capacity in records
	head    uint64   // next sequence number to write
	tail    uint64   // oldest live sequence number
	persist bool     // NVM ring: mirror every write to the durable image

	// hook, when set, fires at the ring's named injection points (see
	// the Point* constants); the crash framework uses it to kill the
	// simulation between any two protocol steps.
	hook func(point string)

	// pointPrefix, when non-empty, overrides the default
	// "wal.redo."/"wal.undo." injection-point prefix — used by logs that
	// are neither (the shard coordinator's decision log) so their crash
	// points get their own namespace.
	pointPrefix string

	// tracer, when set, receives append/truncate events; traceNow
	// supplies virtual timestamps and ringCore identifies the ring.
	tracer   *trace.Recorder
	traceNow func() int64
	ringCore int

	// fates is the volatile fate summary reclamation reads (fate.go).
	fates fates

	// Appends counts records written since creation (statistics).
	Appends uint64
}

// Injection-point suffixes fired by a Log. The full point name is the
// suffix prefixed with "wal.redo." (persistent/NVM ring) or "wal.undo."
// (volatile/DRAM ring), so a crash sweep distinguishes failures in the
// durability-critical redo path from harmless volatile-ring ones.
const (
	// PointAppendRecord fires before the record's bytes are written
	// (crash here: the append never happened).
	PointAppendRecord = "append.record"
	// PointAppendCtrl fires after the record's bytes are written but
	// before the control block advances head (crash here: the record is
	// durable but outside the recovery window — invisible, which is safe
	// because the commit is not yet acknowledged).
	PointAppendCtrl = "append.ctrl"
	// PointReclaimCtrl fires before the control block advances tail
	// (crash here: reclaimed records are still inside the window and
	// will be re-applied — replay must be idempotent).
	PointReclaimCtrl = "reclaim.ctrl"
)

func (l *Log) kind() string {
	if l.pointPrefix != "" {
		return l.pointPrefix
	}
	if l.persist {
		return "wal.redo."
	}
	return "wal.undo."
}

// SetPointPrefix overrides the ring's injection-point prefix (default
// "wal.redo."/"wal.undo." by durability). The prefix should end in ".".
func (l *Log) SetPointPrefix(p string) { l.pointPrefix = p }

func (l *Log) hit(suffix string) {
	if l.hook != nil {
		l.hook(l.kind() + suffix)
	}
}

// SetCrashpoint installs (or removes) the ring's crash-injection hook.
func (l *Log) SetCrashpoint(f func(point string)) { l.hook = f }

// SetTracer installs (or, with nil, removes) the ring's event recorder.
// now supplies virtual timestamps; core is the ring's index, stamped on
// every event.
func (l *Log) SetTracer(r *trace.Recorder, now func() int64, core int) {
	l.tracer, l.traceNow, l.ringCore = r, now, core
}

// redoBit encodes the ring kind into trace-event Arg payloads (bit 8:
// set for the durable NVM redo ring).
func (l *Log) redoBit() uint64 {
	if l.persist {
		return 1 << 8
	}
	return 0
}

// NewLog returns a ring over [base, base+size) of the given store.
// persist selects NVM durability semantics.
func NewLog(store *mem.Store, base mem.Addr, size mem.Addr, persist bool) *Log {
	if size <= ctrlSize+RecordSize {
		panic("wal: log region too small")
	}
	l := &Log{
		store:   store,
		base:    base,
		data:    base + ctrlSize,
		slots:   (uint64(size) - ctrlSize) / RecordSize,
		persist: persist,
	}
	l.writeCtrl()
	return l
}

// Slots returns the ring capacity in records.
func (l *Log) Slots() uint64 { return l.slots }

// Len returns the number of live records.
func (l *Log) Len() uint64 { return l.head - l.tail }

// Head returns the next sequence number to be written.
func (l *Log) Head() uint64 { return l.head }

// Tail returns the oldest live sequence number.
func (l *Log) Tail() uint64 { return l.tail }

func (l *Log) slotAddr(seq uint64) mem.Addr {
	return l.data + mem.Addr((seq%l.slots)*RecordSize)
}

// readBytes fills b from simulated memory at a. When durable is set it
// reads the durable image (crash recovery); otherwise the live image.
func (l *Log) readBytes(a mem.Addr, b []byte, durable bool) {
	if durable {
		l.store.DurableInto(a, b)
	} else {
		l.store.ReadInto(a, b)
	}
}

func (l *Log) writeCtrl() {
	var buf [16]byte
	putU64(buf[0:], l.head)
	putU64(buf[8:], l.tail)
	l.store.WriteThrough(l.base, buf[:], l.persist)
}

// Append adds a record to the ring and returns its sequence number. It
// panics when the ring is full — the paper traps to the OS to grow the
// log area; workloads here reclaim aggressively instead, so a full ring
// is a harness bug.
func (l *Log) Append(r Record) uint64 {
	if l.head-l.tail >= l.slots {
		panic(fmt.Sprintf("wal: log ring at %#x full (%d records); reclamation fell behind", uint64(l.base), l.slots))
	}
	var buf [RecordSize]byte
	encode(r, &buf)
	seq := l.head
	l.hit(PointAppendRecord)
	l.store.WriteThrough(l.slotAddr(seq), buf[:], l.persist)
	l.head++
	l.fates.note(r.TxID, r.Type, r.LSN, seq)
	l.Appends++
	l.hit(PointAppendCtrl)
	l.writeCtrl()
	if l.tracer != nil {
		l.tracer.Emit(l.traceNow(), l.ringCore, trace.EvWALAppend,
			r.TxID, uint64(r.Addr), uint64(r.Type)|l.redoBit(), seq)
	}
	return seq
}

// Reclaim advances the tail to seq (exclusive of live data at seq and
// later), freeing ring space. Reclaiming past the head panics.
func (l *Log) Reclaim(seq uint64) {
	if seq > l.head {
		panic("wal: reclaim past head")
	}
	if seq > l.tail {
		l.hit(PointReclaimCtrl)
		l.tail = seq
		l.fates.truncate(seq)
		l.writeCtrl()
		if l.tracer != nil {
			l.tracer.Emit(l.traceNow(), l.ringCore, trace.EvWALTruncate,
				0, 0, l.redoBit(), seq)
		}
	}
}

// Read returns the record at sequence number seq from the live image.
func (l *Log) Read(seq uint64) (Record, bool) {
	if seq < l.tail || seq >= l.head {
		return Record{}, false
	}
	return l.readRecord(seq, false)
}

// readRecord decodes the slot at seq without bounds checks; callers
// supply the window.
func (l *Log) readRecord(seq uint64, durable bool) (Record, bool) {
	var buf [RecordSize]byte
	l.readBytes(l.slotAddr(seq), buf[:], durable)
	return decode(&buf)
}

// CkptActive is one active-transaction-table entry of a fuzzy
// checkpoint (see Checkpoint).
type CkptActive struct {
	TxID      uint64
	CommitLSN uint64 // 0 when the commit mark is not yet logged
}

// Checkpoint is a decoded fuzzy checkpoint record group: the ARIES-style
// begin_chkpt / active-transaction table / end_chkpt triple written by
// incremental log reclamation (internal/core.ReclaimLogs) without
// waiting for quiescence. LowWater is the commit LSN at or below which
// every committed transaction's data is persisted in place — the replay
// filter. DirtyLines summarizes the pendingNVM set drained just before
// the checkpoint was cut.
type Checkpoint struct {
	Seq        uint64 // monotonically increasing checkpoint number
	LowWater   uint64 // replay filter: commits at or below are in place
	DirtyLines int    // dirty-line summary at checkpoint time
	Active     []CkptActive
	BeginSeq   uint64 // ring sequence of the RecCkptBegin record
}

// AppendCheckpoint writes ck as a record group (begin, one active entry
// per in-flight transaction, end) and returns the begin record's ring
// sequence number. The group spans multiple records, so a power failure
// can persist a prefix of it; CheckpointAt and LatestCheckpoint treat
// any group without a validated end record as torn.
func (l *Log) AppendCheckpoint(ck Checkpoint) uint64 {
	var data mem.Line
	putU64(data[0:8], uint64(len(ck.Active)))
	begin := l.Append(Record{Type: RecCkptBegin, TxID: ck.Seq, Addr: mem.Addr(ck.DirtyLines), Data: data, LSN: ck.LowWater})
	for _, a := range ck.Active {
		l.Append(Record{Type: RecCkptActive, TxID: a.TxID, LSN: a.CommitLSN})
	}
	l.Append(Record{Type: RecCkptEnd, TxID: ck.Seq, LSN: ck.LowWater})
	return begin
}

// CheckpointAt decodes the checkpoint group whose begin record sits at
// ring sequence seq, from the durable image when durable is set. It
// fails (ok=false) when seq is outside the window, any record of the
// group is torn or of the wrong type, or the end record does not echo
// the begin — exactly the cases where recovery must fall back to the
// previous complete checkpoint.
func (l *Log) CheckpointAt(seq uint64, durable bool) (Checkpoint, bool) {
	head, tail := l.head, l.tail
	if durable {
		head, tail = l.RecoverWindow()
	}
	if seq < tail || seq >= head {
		return Checkpoint{}, false
	}
	begin, ok := l.readRecord(seq, durable)
	if !ok || begin.Type != RecCkptBegin {
		return Checkpoint{}, false
	}
	n := getU64(begin.Data[0:8])
	if n > head-seq || seq+n+2 > head {
		return Checkpoint{}, false
	}
	ck := Checkpoint{
		Seq:        begin.TxID,
		LowWater:   begin.LSN,
		DirtyLines: int(begin.Addr),
		BeginSeq:   seq,
	}
	for i := uint64(0); i < n; i++ {
		r, ok := l.readRecord(seq+1+i, durable)
		if !ok || r.Type != RecCkptActive {
			return Checkpoint{}, false
		}
		ck.Active = append(ck.Active, CkptActive{TxID: r.TxID, CommitLSN: r.LSN})
	}
	end, ok := l.readRecord(seq+1+n, durable)
	if !ok || end.Type != RecCkptEnd || end.TxID != begin.TxID || end.LSN != begin.LSN {
		return Checkpoint{}, false
	}
	return ck, true
}

// LatestCheckpoint scans the ring's window and returns the newest
// complete checkpoint group (highest Seq), if any. Recovery uses it as
// the fallback when the checkpoint cell points at a torn group.
func (l *Log) LatestCheckpoint(durable bool) (Checkpoint, bool) {
	head, tail := l.head, l.tail
	if durable {
		head, tail = l.RecoverWindow()
	}
	var best Checkpoint
	found := false
	for seq := tail; seq < head; seq++ {
		if ck, ok := l.CheckpointAt(seq, durable); ok && (!found || ck.Seq >= best.Seq) {
			best, found = ck, true
		}
	}
	return best, found
}

// Records returns all live records in order, reading from the durable
// image when durable is set (post-crash recovery) or the live image
// otherwise. After a crash the control block itself must be read from
// the durable image, which RecoverWindow does. Torn or corrupt records
// are skipped; use records to also learn how many.
func (l *Log) Records(durable bool) []Record {
	out, _ := l.records(durable)
	return out
}

// records is Records plus a count of slots inside the window whose
// contents failed validation (torn/truncated/corrupt writes).
func (l *Log) records(durable bool) (out []Record, torn int) {
	head, tail := l.head, l.tail
	if durable {
		head, tail = l.RecoverWindow()
	}
	out = make([]Record, 0, head-tail)
	for seq := tail; seq < head; seq++ {
		if r, ok := l.readRecord(seq, durable); ok {
			out = append(out, r)
		} else {
			torn++
		}
	}
	return out, torn
}

// RecoverWindow reads the durable control block and returns the live
// window (tail, head) as of the crash. Only meaningful for persistent
// rings.
func (l *Log) RecoverWindow() (head, tail uint64) {
	var buf [16]byte
	l.readBytes(l.base, buf[:], true)
	return getU64(buf[0:]), getU64(buf[8:])
}

// Resync makes the ring's volatile state match its durable state after
// a crash: head and tail are re-read from the durable control block
// (the in-memory copies are volatile — a crash between a record's write
// and its control-block update leaves the in-memory head one past the
// durable one, and the next append would then persist a window that
// reaches over the unacknowledged record), and the fate summary is
// rebuilt from the durable window, with every unmarked, unprepared
// group marked dead (see fates.abandon). It returns the window's validated
// records and the number of torn slots, so recovery decodes the window
// once for both replay and the summary.
func (l *Log) Resync() (recs []Record, torn int) {
	l.head, l.tail = l.RecoverWindow()
	l.fates.reset()
	recs = make([]Record, 0, l.head-l.tail)
	for seq := l.tail; seq < l.head; seq++ {
		r, ok := l.readRecord(seq, true)
		if !ok {
			torn++
			l.fates.noteTorn(seq)
			continue
		}
		recs = append(recs, r)
		l.fates.note(r.TxID, r.Type, r.LSN, seq)
	}
	l.fates.abandon()
	return recs, torn
}

// ReplayStats reports what a redo-log replay did.
type ReplayStats struct {
	CommittedTx   int // distinct committed transactions applied
	AppliedLines  int // RecWrite records applied
	DiscardedTx   int // distinct uncommitted/aborted transactions discarded
	DiscardedRecs int // their RecWrite records
	TornRecs      int // in-window slots skipped (torn/corrupt writes)
	StaleTx       int // committed transactions below the checkpoint, skipped
	StaleRecs     int // their RecWrite records
	ScannedRecs   int // in-window slots examined, including torn ones
}

// Replay performs redo-log crash recovery against the store's durable
// image: every RecWrite whose transaction has a later RecCommit mark is
// applied (written to the live image and persisted); records of
// transactions without a commit mark — or with an abort mark — are
// discarded, exactly as Section IV-C describes.
func (l *Log) Replay() ReplayStats {
	recs, torn := l.records(true)
	committed := map[uint64]bool{}
	aborted := map[uint64]bool{}
	for _, r := range recs {
		switch r.Type {
		case RecCommit:
			committed[r.TxID] = true
		case RecAbort:
			aborted[r.TxID] = true
		}
	}
	var st ReplayStats
	st.TornRecs = torn
	st.ScannedRecs = len(recs) + torn
	seenDiscard := map[uint64]bool{}
	seenApply := map[uint64]bool{}
	for _, r := range recs {
		if r.Type != RecWrite {
			continue
		}
		if committed[r.TxID] && !aborted[r.TxID] {
			l.store.WriteLine(r.Addr, &r.Data)
			l.store.PersistLine(r.Addr, &r.Data)
			st.AppliedLines++
			if !seenApply[r.TxID] {
				seenApply[r.TxID] = true
				st.CommittedTx++
			}
		} else {
			st.DiscardedRecs++
			if !seenDiscard[r.TxID] {
				seenDiscard[r.TxID] = true
				st.DiscardedTx++
			}
		}
	}
	return st
}

// Rings partitions a log area into per-core rings.
type Rings struct {
	logs []*Log
}

// NewRings carves count equal rings out of [areaBase, areaBase+areaSize).
func NewRings(store *mem.Store, areaBase, areaSize mem.Addr, count int, persist bool) *Rings {
	per := areaSize / mem.Addr(count)
	per &^= mem.LineSize - 1 // line-align each ring
	rs := &Rings{}
	for i := 0; i < count; i++ {
		rs.logs = append(rs.logs, NewLog(store, areaBase+mem.Addr(i)*per, per, persist))
	}
	return rs
}

// ForCore returns core i's ring.
func (r *Rings) ForCore(i int) *Log { return r.logs[i] }

// SetCrashpoint installs (or removes) the crash-injection hook on every
// ring.
func (r *Rings) SetCrashpoint(f func(point string)) {
	for _, l := range r.logs {
		l.SetCrashpoint(f)
	}
}

// SetTracer installs (or removes) the event recorder on every ring,
// stamped with its core index.
func (r *Rings) SetTracer(rec *trace.Recorder, now func() int64) {
	for i, l := range r.logs {
		l.SetTracer(rec, now, i)
	}
}

// Count returns the number of rings.
func (r *Rings) Count() int { return len(r.logs) }

// Appends totals record appends across rings.
func (r *Rings) Appends() uint64 {
	var n uint64
	for _, l := range r.logs {
		n += l.Appends
	}
	return n
}

// ReplayAll performs crash recovery across all cores' rings, resyncing
// each ring (Resync) from the window it decodes. Committed
// transactions are applied in global commit order (the LSN on their
// commit marks), so cross-core writes to the same line resolve to the
// newest committed value — as they would with the paper's single
// serialized log area.
//
// Commit records with LSN at or below ckpt are stale truncation
// leftovers: their data is already persisted in place, and ring
// truncation is not atomic across cores, so a crash mid-truncation can
// leave them on some rings while newer commits' records are gone.
// Applying one would regress its lines, so they are skipped (counted as
// StaleTx/StaleRecs).
func (r *Rings) ReplayAll(ckpt uint64) ReplayStats {
	type txGroup struct {
		writes    []Record
		commitLSN uint64
		committed bool
		aborted   bool
	}
	var store *mem.Store
	groups := map[uint64]*txGroup{}
	order := []uint64{} // txIDs with commit marks, to sort by LSN
	torn, scanned := 0, 0
	for _, l := range r.logs {
		store = l.store
		recs, t := l.Resync()
		torn += t
		scanned += len(recs) + t
		for _, rec := range recs {
			g := groups[rec.TxID]
			if g == nil {
				g = &txGroup{}
				groups[rec.TxID] = g
			}
			switch rec.Type {
			case RecWrite:
				g.writes = append(g.writes, rec)
			case RecCommit:
				if !g.committed {
					g.committed = true
					g.commitLSN = rec.LSN
					order = append(order, rec.TxID)
				}
			case RecAbort:
				g.aborted = true
			}
		}
	}
	sort.Slice(order, func(i, j int) bool {
		return groups[order[i]].commitLSN < groups[order[j]].commitLSN
	})
	var st ReplayStats
	st.TornRecs = torn
	st.ScannedRecs = scanned
	for _, id := range order {
		g := groups[id]
		if g.committed && g.commitLSN <= ckpt {
			st.StaleTx++
			st.StaleRecs += len(g.writes)
			continue
		}
		if g.aborted || len(g.writes) == 0 {
			continue
		}
		st.CommittedTx++
		for _, w := range g.writes {
			store.WriteLine(w.Addr, &w.Data)
			store.PersistLine(w.Addr, &w.Data)
			st.AppliedLines++
		}
	}
	for id, g := range groups {
		if (!g.committed || g.aborted) && len(g.writes) > 0 {
			_ = id
			st.DiscardedTx++
			st.DiscardedRecs += len(g.writes)
		}
	}
	return st
}
