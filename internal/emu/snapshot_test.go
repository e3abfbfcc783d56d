package emu

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/prog"
)

// loopProgram builds a store/load loop that churns registers, flags and a
// multi-page data buffer, so mid-run architectural state is nontrivial.
func loopProgram(iters uint64) *prog.Program {
	b := prog.NewBuilder("snapshot-loop")
	buf := b.Alloc(3*4096, 8)
	b.MovImm(isa.X1, buf)
	b.MovImm(isa.X2, iters)
	b.MovImm(isa.X3, 0x9E3779B97F4A7C15)
	top := b.Here()
	b.AndI(isa.X4, isa.X2, 1023)
	b.LslI(isa.X4, isa.X4, 3)
	b.Add(isa.X4, isa.X4, isa.X1)
	b.Str(isa.X3, isa.X4, 0, 8)
	b.Ldr(isa.X5, isa.X4, 0, 8)
	b.Add(isa.X3, isa.X3, isa.X5)
	b.EorI(isa.X3, isa.X3, 0x5bd1)
	b.SubsI(isa.X2, isa.X2, 1)
	b.BCond(isa.NE, top)
	b.Halt()
	return b.Build()
}

// archEqual compares the complete architectural state of two emulators:
// registers, flags, position, and every byte of mapped memory.
func archEqual(t *testing.T, a, b *Emulator) {
	t.Helper()
	if a.X != b.X {
		t.Errorf("integer registers differ: %v vs %v", a.X, b.X)
	}
	if a.D != b.D {
		t.Errorf("FP registers differ")
	}
	if a.Flags != b.Flags {
		t.Errorf("flags differ: %+v vs %+v", a.Flags, b.Flags)
	}
	if a.PC() != b.PC() || a.Executed() != b.Executed() || a.Halted() != b.Halted() {
		t.Errorf("position differs: pc %#x/%#x seq %d/%d halted %v/%v",
			a.PC(), b.PC(), a.Executed(), b.Executed(), a.Halted(), b.Halted())
	}
	for pn, pa := range a.Mem.pages {
		pb := b.Mem.readPage(pn * pageSize)
		if *pa != *pb {
			t.Errorf("page %#x differs", pn*pageSize)
		}
	}
	if got, want := b.Mem.PageCount(), a.Mem.PageCount(); got != want {
		t.Errorf("page count %d, want %d", got, want)
	}
}

// TestSnapshotRestoreBitIdentical checks the checkpointing contract: a run
// resumed from a mid-program snapshot finishes in exactly the state a
// fresh uninterrupted run reaches.
func TestSnapshotRestoreBitIdentical(t *testing.T) {
	p := loopProgram(5000)

	fresh := New(p)
	fresh.Run(0, nil) // to HALT

	warm := New(p)
	warm.Run(7000, nil) // mid-loop: ~778 iterations in
	snap := warm.Snapshot()

	resumed := snap.Restore()
	if resumed.Executed() != 7000 {
		t.Fatalf("restored emulator at seq %d, want 7000", resumed.Executed())
	}
	resumed.Run(0, nil)
	archEqual(t, fresh, resumed)
}

// TestSnapshotIsolation checks that every copy of a checkpoint is
// private: writes through one restore never reach the source emulator,
// the snapshot or another restore; the source's writes after Snapshot
// never reach a restore; and emulators restored from one snapshot replay
// to the same final state however the others have run.
func TestSnapshotIsolation(t *testing.T) {
	p := loopProgram(5000)
	warm := New(p)
	warm.Run(7000, nil)
	// Two pages the loop never touches: one the source maps before the
	// snapshot, one nobody maps until the writes below.
	const mapped, fresh = 0x7e000, 0x7f000
	warm.Mem.Write(mapped, 0xdeadbeef, 8)
	snap := warm.Snapshot()
	read := func(e *Emulator) [2]uint64 { return [2]uint64{e.Mem.Read(mapped, 8), e.Mem.Read(fresh, 8)} }
	orig := [2]uint64{0xdeadbeef, 0}

	x, y := snap.Restore(), snap.Restore()
	x.Mem.Write(mapped, 1, 8)
	x.Mem.Write(fresh, 2, 8)
	if got := read(warm); got != orig {
		t.Errorf("a restore's writes reached the source: %#x", got)
	}
	if got := read(y); got != orig {
		t.Errorf("a restore's writes reached another restore: %#x", got)
	}
	if got := read(snap.Restore()); got != orig {
		t.Errorf("a restore's writes reached the snapshot: %#x", got)
	}

	warm.Mem.Write(mapped, 3, 8)
	warm.Mem.Write(fresh, 4, 8)
	if got := read(y); got != orig {
		t.Errorf("the source's writes reached an earlier restore: %#x", got)
	}
	if got := read(snap.Restore()); got != orig {
		t.Errorf("the source's writes reached a later restore: %#x", got)
	}
	if got := read(x); got != [2]uint64{1, 2} {
		t.Errorf("a restore lost its own writes: %#x", got)
	}

	a, b := snap.Restore(), snap.Restore()
	// The snapshotted emulator continues past the checkpoint...
	warm.Run(9000, nil)
	// ...and A runs to completion in its own copy.
	a.Run(0, nil)

	// B is still exactly at the checkpoint.
	if b.Executed() != 7000 {
		t.Fatalf("b advanced to %d without stepping", b.Executed())
	}
	b.Run(0, nil)
	archEqual(t, a, b)

	// A later restore replays to the same final state as well.
	c := snap.Restore()
	c.Run(0, nil)
	archEqual(t, a, c)
}

// TestSnapshotConcurrentRestore exercises concurrent Restore+Run from one
// shared snapshot under -race (make race runs this package).
func TestSnapshotConcurrentRestore(t *testing.T) {
	p := loopProgram(3000)
	warm := New(p)
	warm.Run(5000, nil)
	snap := warm.Snapshot()

	ref := snap.Restore()
	ref.Run(0, nil)

	const workers = 8
	done := make(chan *Emulator, workers)
	for i := 0; i < workers; i++ {
		go func() {
			e := snap.Restore()
			e.Run(0, nil)
			done <- e
		}()
	}
	for i := 0; i < workers; i++ {
		archEqual(t, ref, <-done)
	}
}

// TestMemoryCrossPage checks multi-byte accesses that straddle a page
// boundary survive the last-page translation cache.
func TestMemoryCrossPage(t *testing.T) {
	m := NewMemory()
	const addr = 2*pageSize - 3 // 8-byte access spanning two pages
	m.Write(addr, 0x0102030405060708, 8)
	if got := m.Read(addr, 8); got != 0x0102030405060708 {
		t.Errorf("cross-page read = %#x", got)
	}
	// The bytes landing on the second page (little-endian: 05 04 03 02)
	// are visible through an in-page read there.
	if got := m.Read(2*pageSize, 4); got != 0x02030405 {
		t.Errorf("high half = %#x, want 0x02030405", got)
	}
	// And the first-page prefix (08 07 06) reads back below the boundary.
	if got := m.Read(addr, 2); got != 0x0708 {
		t.Errorf("low prefix = %#x, want 0x0708", got)
	}
}
