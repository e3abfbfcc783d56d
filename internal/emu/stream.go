package emu

import "fmt"

// Stream adapts an Emulator into a rewindable dynamic instruction stream
// for the timing model. The timing model's fetch stage pulls records with
// Next; a pipeline flush rewinds the cursor to the squashed instruction's
// sequence number so it is delivered again (re-fetched), which is exactly
// the semantics §3.4 of the paper requires for MVP/TVP value
// mispredictions (the mispredicted instruction itself must be refetched
// and renamed again).
//
// It is the timing core's only instruction source: records are generated
// on demand by the attached emulator and retained in a power-of-two ring.
// A rewind must not go further back than the ring capacity, which the
// pipeline guarantees because it never rewinds past the oldest
// non-committed instruction and the ring is sized well above the
// instruction window.
type Stream struct {
	emu    *Emulator
	recs   []DynInst
	mask   uint64 // len(recs)-1; capacity is forced to a power of two
	head   uint64 // sequence number of the next record to generate
	cursor uint64 // sequence number of the next record to deliver
	done   bool   // emulator has halted; head is the final count
}

// DefaultStreamCapacity comfortably exceeds the maximum number of
// instructions that can be in flight (ROB + fetch/decode buffers).
const DefaultStreamCapacity = 4096

// NewStream returns a stream over the emulator with the given ring
// capacity (DefaultStreamCapacity if cap <= 0). The stream numbering
// starts at the emulator's current position, so a stream over an emulator
// restored from a warmup checkpoint delivers records whose sequence
// numbers continue the pre-checkpoint count — Cursor, Rewind and the
// records' Seq fields all agree.
func NewStream(e *Emulator, capacity int) *Stream {
	if capacity <= 0 {
		capacity = DefaultStreamCapacity
	}
	// Round up to a power of two so ring indexing is a mask, not a
	// division — Peek runs once per fetched µop.
	for capacity&(capacity-1) != 0 {
		capacity += capacity & -capacity
	}
	start := e.Executed()
	return &Stream{emu: e, recs: make([]DynInst, capacity), mask: uint64(capacity - 1), head: start, cursor: start}
}

// Cursor returns the sequence number of the next record Next will deliver.
func (s *Stream) Cursor() uint64 { return s.cursor }

// At returns the retained record with the given sequence number. The seq
// must be within the retained window: at most ring-capacity behind the
// generation head (the pipeline's in-flight window is far smaller). No
// bounds are re-checked beyond the slice access itself — At sits on the
// per-µop hot path.
//
//tvp:hotpath
func (s *Stream) At(seq uint64) *DynInst {
	return &s.recs[seq&s.mask]
}

// Next returns the record at the cursor and advances it, or nil when the
// program has ended. The returned pointer is valid until the record falls
// out of the ring (i.e. at least ring-capacity deliveries).
func (s *Stream) Next() *DynInst {
	d := s.Peek()
	if d != nil {
		s.cursor++
	}
	return d
}

// Advance moves the cursor past the current record. The caller must hold
// a non-nil Peek result for the current cursor position — Advance is
// Peek's consuming half, letting the fetch hot path skip Next's repeated
// generation check when it has already peeked the record this cycle.
//
//tvp:hotpath
func (s *Stream) Advance() { s.cursor++ }

// Peek returns the record at the cursor without advancing, or nil at end
// of program.
func (s *Stream) Peek() *DynInst {
	for s.cursor >= s.head {
		if s.done {
			return nil
		}
		slot := &s.recs[s.head&s.mask]
		if !s.emu.Step(slot) {
			s.done = true
			return nil
		}
		s.head++
	}
	return &s.recs[s.cursor&s.mask]
}

// Rewind moves the cursor back to seq, so the instruction with that
// sequence number is the next one delivered. It panics if seq has fallen
// out of the ring or lies in the future.
func (s *Stream) Rewind(seq uint64) {
	if seq > s.cursor {
		panic(fmt.Sprintf("emu: rewind forward (seq %d > cursor %d)", seq, s.cursor))
	}
	if s.head > uint64(len(s.recs)) && seq < s.head-uint64(len(s.recs)) {
		panic(fmt.Sprintf("emu: rewind past ring capacity (seq %d, oldest %d)", seq, s.head-uint64(len(s.recs))))
	}
	s.cursor = seq
}

// Done reports whether the underlying program has halted and all records
// have been generated.
func (s *Stream) Done() bool { return s.done && s.cursor >= s.head }
