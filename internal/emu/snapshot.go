package emu

// Snapshot is an immutable architectural-state checkpoint: a frozen copy
// of an emulator (registers, flags, control state) with a private copy
// of its memory image. Restore gives each emulator a fresh copy of that
// image, so the snapshot, the emulator it was taken from and every
// emulator restored from it never see one another's writes; only the
// immutable program is shared.
//
// A Snapshot is safe for concurrent use: any number of goroutines may
// Restore from the same snapshot and run the resulting emulators in
// parallel. The pipeline's CrossCheck mode restores its shadow emulator
// from one (pipeline.NewFromEmulator), and workload.Checkpoint returns
// one for the benchmark's functional-warmup measurement.
type Snapshot struct{ frozen Emulator }

// Snapshot captures the emulator's architectural state. The live emulator
// remains usable and never mutates the checkpoint.
func (e *Emulator) Snapshot() *Snapshot {
	s := &Snapshot{frozen: *e}
	s.frozen.Mem = e.Mem.clone()
	return s
}

// Restore returns a fresh emulator positioned exactly at the snapshot
// point: same registers, flags, PC, sequence numbering and memory
// contents, in a memory of its own.
func (s *Snapshot) Restore() *Emulator {
	e := s.frozen
	e.Mem = s.frozen.Mem.clone()
	return &e
}
