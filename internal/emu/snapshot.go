package emu

import (
	"repro/internal/isa"
	"repro/internal/prog"
)

// Snapshot is an immutable architectural-state checkpoint: registers,
// flags, control state, and the memory image at the moment it was taken.
// Memory pages are shared copy-on-write between the snapshot, the
// emulator it was taken from, and every emulator restored from it, so
// taking and restoring checkpoints costs O(mapped pages) pointer copies
// rather than O(footprint) byte copies.
//
// A Snapshot is safe for concurrent use: any number of goroutines may
// Restore from the same snapshot and run the resulting emulators in
// parallel. The pipeline's CrossCheck mode restores its shadow emulator
// from one (pipeline.NewFromEmulator), and workload.Checkpoint returns
// one for the benchmark's functional-warmup measurement.
type Snapshot struct {
	prog   *prog.Program
	x      [isa.NumRegs]uint64
	d      [32]uint64
	flags  isa.Flags
	pcIdx  int
	seq    uint64
	halted bool
	pages  map[uint64]*[pageSize]byte
}

// Snapshot captures the emulator's architectural state. The live emulator
// remains usable; its subsequent writes copy pages privately and never
// mutate the checkpoint.
func (e *Emulator) Snapshot() *Snapshot {
	return &Snapshot{
		prog:   e.Prog,
		x:      e.X,
		d:      e.D,
		flags:  e.Flags,
		pcIdx:  e.pcIdx,
		seq:    e.seq,
		halted: e.halted,
		pages:  e.Mem.share(),
	}
}

// Restore returns a fresh emulator positioned exactly at the snapshot
// point: same registers, flags, PC, sequence numbering and memory
// contents. The new emulator shares memory pages copy-on-write with the
// snapshot.
func (s *Snapshot) Restore() *Emulator {
	return &Emulator{
		Prog:   s.prog,
		Mem:    memoryFromShared(s.pages),
		X:      s.x,
		D:      s.d,
		Flags:  s.flags,
		pcIdx:  s.pcIdx,
		seq:    s.seq,
		halted: s.halted,
	}
}

// Seq returns the dynamic sequence number of the next instruction the
// restored emulator will execute (i.e. the number of instructions executed
// before the snapshot was taken).
func (s *Snapshot) Seq() uint64 { return s.seq }

// Program returns the program the snapshot was taken from.
func (s *Snapshot) Program() *prog.Program { return s.prog }
