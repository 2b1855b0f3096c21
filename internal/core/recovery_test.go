package core

import (
	"testing"

	"uhtm/internal/mem"
	"uhtm/internal/sim"
	"uhtm/internal/wal"
)

// TestRecoveryDiscardsUncommitted: a power failure in the middle of a
// transaction leaves no trace of it after recovery.
func TestRecoveryDiscardsUncommitted(t *testing.T) {
	eng, m := newTestMachine(DefaultOptions())
	al := mem.NewAllocator(mem.NVM)
	a := al.AllocLines(4)
	eng.Spawn("t", func(th *sim.Thread) {
		c := m.NewCtx(th, 0)
		c.Run(func(tx *Tx) {
			for i := mem.Addr(0); i < 4; i++ {
				tx.WriteU64(a+i*mem.LineSize, 0xBAD)
			}
			th.Advance(sim.Millisecond) // crash lands here
			tx.ReadU64(a)
		})
	})
	eng.HaltAt(500 * sim.Microsecond)
	eng.Run()
	if !eng.Halted() {
		t.Fatal("engine did not halt")
	}
	m.Crash()
	st := m.Recover()
	if st.CommittedTx != 0 || st.AppliedLines != 0 {
		t.Errorf("replay stats = %+v, want nothing applied", st)
	}
	for i := mem.Addr(0); i < 4; i++ {
		if got := m.Store().ReadU64(a + i*mem.LineSize); got != 0 {
			t.Errorf("uncommitted write survived crash: line %d = %#x", i, got)
		}
	}
}

// TestRecoveryAppliesCommitted: a committed transaction survives a crash
// even though its in-place NVM data never drained.
func TestRecoveryAppliesCommitted(t *testing.T) {
	eng, m := newTestMachine(DefaultOptions())
	al := mem.NewAllocator(mem.NVM)
	a := al.AllocLines(4)
	eng.Spawn("t", func(th *sim.Thread) {
		c := m.NewCtx(th, 0)
		c.Run(func(tx *Tx) {
			for i := mem.Addr(0); i < 4; i++ {
				tx.WriteU64(a+i*mem.LineSize, uint64(0x1000+i))
			}
		})
	})
	eng.Run()
	// No DrainToNVM: in-place durable NVM is still stale; only the log
	// carries the committed values.
	m.Crash()
	st := m.Recover()
	if st.CommittedTx != 1 || st.AppliedLines != 4 {
		t.Errorf("replay stats = %+v", st)
	}
	for i := mem.Addr(0); i < 4; i++ {
		if got := m.Store().ReadU64(a + i*mem.LineSize); got != uint64(0x1000+i) {
			t.Errorf("line %d = %#x after recovery", i, got)
		}
	}
}

// TestRecoveryPairInvariant is the failure-atomicity sweep: transactions
// keep pairs of NVM lines equal; whenever the crash lands, recovery must
// restore a state where every pair is consistent.
func TestRecoveryPairInvariant(t *testing.T) {
	const pairs = 16
	for _, crashAt := range []sim.Time{
		50 * sim.Microsecond,
		200 * sim.Microsecond,
		500 * sim.Microsecond,
		900 * sim.Microsecond,
	} {
		eng, m := newTestMachine(DefaultOptions())
		al := mem.NewAllocator(mem.NVM)
		left := al.AllocLines(pairs)
		right := al.AllocLines(pairs)
		for i := 0; i < 2; i++ {
			eng.Spawn("w", func(th *sim.Thread) {
				c := m.NewCtx(th, 0)
				rng := eng.Rand()
				for k := 0; k < 200; k++ {
					c.Run(func(tx *Tx) {
						p := mem.Addr(rng.Intn(pairs)) * mem.LineSize
						v := tx.ReadU64(left+p) + 1
						tx.WriteU64(left+p, v)
						tx.WriteU64(right+p, v)
					})
				}
			})
		}
		eng.HaltAt(crashAt)
		eng.Run()
		m.Crash()
		m.Recover()
		for i := mem.Addr(0); i < pairs; i++ {
			l := m.Store().ReadU64(left + i*mem.LineSize)
			r := m.Store().ReadU64(right + i*mem.LineSize)
			if l != r {
				t.Errorf("crash@%v: pair %d torn after recovery: %d != %d", crashAt, i, l, r)
			}
		}
	}
}

// TestRecoveryAfterReclaim: once logs are reclaimed (with the committed
// images persisted in place), recovery with an empty log still yields
// the committed state.
func TestRecoveryAfterReclaim(t *testing.T) {
	eng, m := newTestMachine(DefaultOptions())
	al := mem.NewAllocator(mem.NVM)
	a := al.AllocLines(8)
	eng.Spawn("t", func(th *sim.Thread) {
		c := m.NewCtx(th, 0)
		for k := 0; k < 8; k++ {
			k := k
			c.Run(func(tx *Tx) {
				tx.WriteU64(a+mem.Addr(k)*mem.LineSize, uint64(100+k))
			})
		}
	})
	eng.Run()
	m.ReclaimLogs()
	m.Crash()
	st := m.Recover()
	if st.AppliedLines != 0 {
		t.Errorf("replay applied %d lines from reclaimed logs", st.AppliedLines)
	}
	for k := 0; k < 8; k++ {
		if got := m.Store().ReadU64(a + mem.Addr(k)*mem.LineSize); got != uint64(100+k) {
			t.Errorf("line %d = %d after reclaim+crash", k, got)
		}
	}
}

// TestRecoveryOverwriteOrder: two committed transactions write the same
// line; recovery must surface the later value.
func TestRecoveryOverwriteOrder(t *testing.T) {
	eng, m := newTestMachine(DefaultOptions())
	al := mem.NewAllocator(mem.NVM)
	a := al.AllocLines(1)
	eng.Spawn("t", func(th *sim.Thread) {
		c := m.NewCtx(th, 0)
		c.Run(func(tx *Tx) { tx.WriteU64(a, 1) })
		c.Run(func(tx *Tx) { tx.WriteU64(a, 2) })
	})
	eng.Run()
	m.Crash()
	m.Recover()
	if got := m.Store().ReadU64(a); got != 2 {
		t.Errorf("recovered %d, want 2 (later commit wins)", got)
	}
}

// TestDRAMIsVolatile: committed DRAM data does not survive a crash —
// durability is an NVM property only.
func TestDRAMIsVolatile(t *testing.T) {
	eng, m := newTestMachine(DefaultOptions())
	d := mem.NewAllocator(mem.DRAM)
	n := mem.NewAllocator(mem.NVM)
	da, na := d.AllocLines(1), n.AllocLines(1)
	eng.Spawn("t", func(th *sim.Thread) {
		c := m.NewCtx(th, 0)
		c.Run(func(tx *Tx) {
			tx.WriteU64(da, 11)
			tx.WriteU64(na, 22)
		})
	})
	eng.Run()
	m.Crash()
	m.Recover()
	if got := m.Store().ReadU64(da); got != 0 {
		t.Errorf("DRAM value %d survived crash", got)
	}
	if got := m.Store().ReadU64(na); got != 22 {
		t.Errorf("NVM value = %d after recovery", got)
	}
}

// TestRecoveryResyncsRingWindow is the regression test for recovery
// leaving a redo ring's volatile head one past its durable head. A
// power failure between the commit mark's write and its control-block
// update (wal.redo.append.ctrl) leaves the mark durable but outside the
// recovery window, so the unacknowledged transaction is correctly
// discarded. Without a resync the next commit on the same ring then
// persisted the stale in-memory head, pulling that mark into the
// window, and a second crash replayed the transaction.
func TestRecoveryResyncsRingWindow(t *testing.T) {
	eng, m := newTestMachine(DefaultOptions())
	al := mem.NewAllocator(mem.NVM)
	a, b := al.AllocLines(1), al.AllocLines(1)
	afterMark := false
	m.SetCrashpoint(func(point string) {
		switch {
		case point == PointCommitMark:
			afterMark = true
		case afterMark && point == "wal.redo."+wal.PointAppendCtrl:
			eng.HaltNow()
		}
	})
	eng.Spawn("t", func(th *sim.Thread) {
		m.NewCtx(th, 0).Run(func(tx *Tx) { tx.WriteU64(b, 0xBAD) })
	})
	eng.Run()
	if !eng.Halted() {
		t.Fatal("engine did not halt at the commit mark's control-block update")
	}
	m.SetCrashpoint(nil)
	m.Crash()
	m.Recover()
	if got := m.Store().ReadU64(b); got != 0 {
		t.Fatalf("after the first recovery b = %#x, want 0", got)
	}

	// One more commit on the same core's ring, then a second crash.
	eng.Restart()
	eng.Recycle()
	eng.Spawn("t2", func(th *sim.Thread) {
		m.NewCtx(th, 0).Run(func(tx *Tx) { tx.WriteU64(a, 1) })
	})
	eng.Run()
	m.Crash()
	m.Recover()
	if got := m.Store().ReadU64(b); got != 0 {
		t.Errorf("after the second recovery b = %#x, want 0: the unacknowledged commit was replayed", got)
	}
	if got := m.Store().ReadU64(a); got != 1 {
		t.Errorf("after the second recovery a = %#x, want the acknowledged 1", got)
	}
}
