package mem

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// Byte-wise reference implementations of the bulk accessors: one line
// lookup per byte through the line API, the way the store once did it.
// PeekLine materializes like every live access, so the reference also
// pins which lines a bulk access brings into existence.

func refReadBytes(s *Store, a Addr, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		l := s.PeekLine(a + Addr(i))
		out[i] = l[LineOffset(a+Addr(i))]
	}
	return out
}

func refWriteBytes(s *Store, a Addr, b []byte) {
	for i := range b {
		la := LineOf(a + Addr(i))
		l := s.PeekLine(la)
		l[LineOffset(a+Addr(i))] = b[i]
		s.PokeLine(la, &l)
	}
}

func refReadU64(s *Store, a Addr) uint64 {
	var v uint64
	for i, c := range refReadBytes(s, a, 8) {
		v |= uint64(c) << (8 * i)
	}
	return v
}

func refWriteU64(s *Store, a Addr, v uint64) {
	var b [8]byte
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	refWriteBytes(s, a, b[:])
}

// refPersistLiveNVM copies every materialized live NVM data line into
// the durable image, one line at a time.
func refPersistLiveNVM(s *Store) {
	for a, l := range s.SnapshotLive() {
		if KindOf(a) == NVM && !InLogArea(a) {
			l := l
			s.PersistLine(a, &l)
		}
	}
}

// TestBulkAccessMatchesByteWise drives the line-granular ReadBytes,
// WriteBytes, ReadU64, WriteU64, DurableU64 and PersistLiveNVM and
// their byte-wise references with the same seeded random operations,
// straddling line and page boundaries in DRAM, NVM data and the NVM log
// area: every read must return the same bytes, and both stores must end
// with identical live and durable images — contents and the set of
// materialized lines alike.
func TestBulkAccessMatchesByteWise(t *testing.T) {
	const page = PageLines * LineSize
	bases := []Addr{
		DRAMBase + 3*page,
		NVMBase + 5*page,
		NVMBase + 9*page,
		NVMLogBase + 2*page, // log area: PersistLiveNVM must skip it
	}
	rng := rand.New(rand.NewSource(1))
	got, want := NewStore(DefaultConfig()), NewStore(DefaultConfig())
	addr := func() Addr {
		// Within three lines either side of a page boundary.
		return bases[rng.Intn(len(bases))] - 3*LineSize + Addr(rng.Intn(6*LineSize))
	}
	for i := 0; i < 4000; i++ {
		a := addr()
		switch rng.Intn(6) {
		case 0:
			b := make([]byte, rng.Intn(5*LineSize))
			rng.Read(b)
			got.WriteBytes(a, b)
			refWriteBytes(want, a, b)
		case 1:
			n := rng.Intn(5 * LineSize)
			if g, w := got.ReadBytes(a, n), refReadBytes(want, a, n); !bytes.Equal(g, w) {
				t.Fatalf("op %d: ReadBytes(%#x, %d) differs from the byte-wise read", i, uint64(a), n)
			}
		case 2:
			a &^= 7
			v := rng.Uint64()
			got.WriteU64(a, v)
			refWriteU64(want, a, v)
		case 3:
			a &^= 7
			if g, w := got.ReadU64(a), refReadU64(want, a); g != w {
				t.Fatalf("op %d: ReadU64(%#x) = %#x, byte-wise %#x", i, uint64(a), g, w)
			}
		case 4:
			if KindOf(a) != NVM {
				continue
			}
			a &^= 7
			l := want.DurableLine(a)
			var w uint64
			for j := 0; j < 8; j++ {
				w |= uint64(l[LineOffset(a)+j]) << (8 * j)
			}
			if g := got.DurableU64(a); g != w {
				t.Fatalf("op %d: DurableU64(%#x) = %#x, want %#x", i, uint64(a), g, w)
			}
		case 5:
			got.PersistLiveNVM()
			refPersistLiveNVM(want)
		}
	}
	if !reflect.DeepEqual(got.SnapshotLive(), want.SnapshotLive()) {
		t.Error("live images differ (contents or materialized lines)")
	}
	if !reflect.DeepEqual(got.SnapshotDurable(), want.SnapshotDurable()) {
		t.Error("durable images differ (contents or materialized lines)")
	}
	if len(got.SnapshotDurable()) == 0 {
		t.Error("nothing persisted: the test did not exercise PersistLiveNVM")
	}
}

// TestWriteThroughPersistsEachLine: a durable write spanning lines
// persists each touched line whole, firing the persist injection point
// once per line, and charges one medium write per line.
func TestWriteThroughPersistsEachLine(t *testing.T) {
	s := NewStore(DefaultConfig())
	a := NVMBase + LineSize - 8
	var points []string
	s.SetCrashpoint(func(p string) { points = append(points, p) })
	b := bytes.Repeat([]byte{0xAB}, LineSize+16) // three lines: 8 + 64 + 8
	s.WriteThrough(a, b, true)
	if len(points) != 3 || s.NVMWrites != 3 {
		t.Fatalf("persist points %d, NVM writes %d; want 3 each", len(points), s.NVMWrites)
	}
	if got := s.ReadBytes(a, len(b)); !bytes.Equal(got, b) {
		t.Error("live bytes differ")
	}
	for la := LineOf(a); la < a+Addr(len(b)); la += LineSize {
		if s.DurableLine(la) != s.PeekLine(la) {
			t.Errorf("line %#x: durable image differs from live", uint64(la))
		}
	}
}
