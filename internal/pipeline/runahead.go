package pipeline

import (
	"fmt"
	"sync"

	"repro/internal/bp"
	"repro/internal/config"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/vp"
)

// Run-ahead frontend.
//
// The timing model is trace-driven (DESIGN §2). The functional emulator
// produces the correct-path instruction stream, and TAGE, the BTB, the
// RAS and the indirect target cache each predict and train once per
// dynamic instruction, in program order, with the actual outcome.
// VTAGE's branch history and its index and tag hashes depend only on the
// branch stream and the PCs; only its tables depend on timing, because
// they train at commit. Everything else is a pure function of program
// order, so a producer goroutine computes it ahead of the timing core and
// hands it over through a ring of records.
//
// Ownership. The producer (frontend) owns the emulator, TAGE, the BTB,
// the RAS, the indirect cache and VTAGE's History. For each dynamic
// instruction, in order, it fills one raSlot: the DynInst, the
// misprediction and BTB-miss bits, and the VTAGE indices and tags. The
// timing core owns what depends on timing: VTAGE's tables (probed at
// first fetch, trained at commit) and silencing. It also counts the
// branch statistics and fires the BranchMispredict hooks at first fetch
// from the precomputed bits, so warmup snapshots, interval samples and
// per-PC attribution see the same values at the same cycles as before.
//
// Protocol. The ring has raChunks chunks of raChunk slots, and slot
// seq&raMask holds instruction seq. Chunks change hands over two
// channels:
//   - the producer takes a token from free, fills the next chunk in seq
//     order, and sends the chunk's end on full;
//   - the core receives from full when fetch reaches the end of what it
//     holds, and sends a token on free once committed passes a chunk's
//     end (retire).
//
// A send happens before the matching receive completes. So every
// producer write to a chunk happens before the core reads it, and every
// core access to a chunk happens before the producer refills it: the two
// goroutines never touch a slot at the same time. Each side pays two
// channel operations per raChunk instructions. The free channel starts
// with every token. The core holds the chunks from the oldest uncommitted
// instruction's through the fetch cursor's, and config.MaxWindow keeps
// that span at least one chunk short of the ring. So while the core
// waits for a chunk, the producer always has a free one to fill.
//
// Lifetime. Core.Run starts the producer and joins it before returning,
// on every path, including panics (a deferred stop). stop queues a stop
// token behind any free tokens and waits; the producer fills a chunk for
// each free token it drains first, at most the whole ring, and returns on
// the stop token. A later Run restarts it where it left off. No goroutine
// outlives Run, and nothing is shared between cores.
//
// Panics. The producer recovers a panic (an emulator PC that leaves the
// text, say) and ends the stream at the faulting instruction, publishing
// the value with the final chunk. The core re-raises the original value
// on its own goroutine when fetch reaches that record, so the run stops
// at the faulting instruction whichever goroutine stepped the emulator,
// and report.Execute returns the panic as an error.
//
// GOMAXPROCS=1. The two goroutines take turns. The core runs until it
// needs a chunk the producer has not filled; then the producer fills
// every free chunk and blocks on free. That is two goroutine switches
// per up to raChunks chunks. Nothing is computed twice; the only work
// no instruction uses is the chunks stop finds queued at the end of Run.

const (
	raSlots  = config.RunAheadSlots
	raChunk  = config.RunAheadChunk
	raMask   = raSlots - 1
	raChunks = raSlots / raChunk
)

// raSlot is one dynamic instruction's record. The producer writes d,
// bpMispred, btbMiss and vp's indices and tags; the core writes the rest
// of vp (its table probe) and vpValue at first fetch.
type raSlot struct {
	d  emu.DynInst
	vp vp.Lookup
	// vpValue is the prediction rename uses. injectVPBug corrupts this
	// copy, never vp.Value, which trains.
	vpValue   uint64
	bpMispred bool // TAGE direction, RAS return or indirect target mispredicted
	btbMiss   bool // taken direct branch whose target the BTB missed
}

// raFilled announces a filled chunk.
type raFilled struct {
	end  uint64 // one past the chunk's last record
	last bool   // the stream ends at end
}

// frontend is the producer: the state that advances in program order.
// Between start and stop only the producer goroutine touches it, except
// fault, which the core reads after receiving the final chunk.
type frontend struct {
	emu  *emu.Emulator
	tage *bp.TAGE
	btb  *bp.BTB
	ras  *bp.RAS
	ind  *bp.Indirect
	vh   *vp.History // nil with VP off

	next  uint64 // seq of the next record to produce
	ended bool   // the stream has ended; nothing more to produce
	fault any    // the recovered panic that ended the stream, if any
}

// runAhead is the core's side of the ring: the slots, the channels, and
// the fetch cursor.
type runAhead struct {
	slots []raSlot
	fe    *frontend
	free  chan bool // true: one free chunk; false: stop
	full  chan raFilled
	done  sync.WaitGroup

	cursor uint64 // seq of the next record fetch delivers
	avail  uint64 // one past the last record received
	held   uint64 // first seq of the oldest chunk the core holds
	ended  bool   // the final chunk has been received
}

// init builds the producer over the emulator, which stays untouched until
// start; sequence numbering continues from the emulator's position.
func (r *runAhead) init(cfg *config.Machine, e *emu.Emulator) {
	f := &frontend{
		emu: e,
		tage: bp.NewTAGE(bp.TAGEConfig{
			BaseLog2:   cfg.BPBaseLog2,
			TaggedLog2: cfg.BPTaggedLog2,
			Tables:     cfg.BPTables,
			TagBits:    cfg.BPTagBits,
			MinHist:    cfg.BPMinHist,
			MaxHist:    cfg.BPMaxHist,
		}),
		btb:  bp.NewBTB(cfg.BTBEntries, cfg.BTBAssoc),
		ras:  bp.NewRAS(cfg.RASEntries),
		ind:  bp.NewIndirect(cfg.IndirectEntries),
		next: e.Executed(),
	}
	if cfg.VP.Mode != config.VPOff {
		f.vh = vp.NewHistory(cfg.VP)
	}
	r.fe = f
	r.slots = make([]raSlot, raSlots)
	// Both channels can hold every chunk, so neither side ever blocks
	// on a send; free also has room for the stop token.
	r.free = make(chan bool, raChunks+1)
	r.full = make(chan raFilled, raChunks)
	for range raChunks {
		r.free <- true
	}
	r.cursor, r.avail, r.held = f.next, f.next, f.next
}

// start launches the producer goroutine.
func (r *runAhead) start() {
	r.done.Add(1)
	go r.produce()
}

// stop joins the producer goroutine.
func (r *runAhead) stop() {
	r.free <- false
	r.done.Wait()
}

// produce is the producer goroutine: it fills a chunk for each free
// token until the stream ends, and returns on the stop token. It touches
// only r.fe, the slots of the chunks it fills, the channels and done.
func (r *runAhead) produce() {
	defer r.done.Done()
	for <-r.free {
		if !r.fe.ended {
			r.full <- r.fe.fill(r.slots)
		}
	}
}

// fill produces records up to the next chunk boundary or the end of the
// stream. A panic in the emulator or a predictor ends the stream at the
// faulting record.
func (f *frontend) fill(slots []raSlot) (c raFilled) {
	defer func() {
		if v := recover(); v != nil {
			f.ended, f.fault = true, v
			c = raFilled{end: f.next, last: true}
		}
	}()
	for end := (f.next | (raChunk - 1)) + 1; f.next < end; f.next++ {
		s := &slots[f.next&raMask]
		if !f.emu.Step(&s.d) {
			f.ended = true
			break
		}
		f.predict(s)
	}
	return raFilled{end: f.next, last: f.ended}
}

// predict runs the program-order predictors over one record: TAGE, the
// BTB, the RAS and the indirect cache predict and train with the actual
// outcome, and VTAGE's history advances and hashes the instruction.
func (f *frontend) predict(s *raSlot) {
	d := &s.d
	in := d.Inst
	s.bpMispred, s.btbMiss = false, false
	switch {
	case isa.IsCondBranch(in.Op):
		pr := f.tage.Predict(d.PC)
		s.bpMispred = pr.Taken != d.Taken
		f.tage.Train(d.PC, pr, d.Taken)
		if f.vh != nil {
			f.vh.Push(d.Taken)
		}
		if d.Taken {
			s.btbMiss = f.direct(d)
		}
	case in.Op == isa.B, in.Op == isa.BL:
		s.btbMiss = f.direct(d)
		if in.Op == isa.BL {
			f.ras.Push(d.PC + 4)
		}
	case in.Op == isa.RET:
		tgt, ok := f.ras.Pop()
		s.bpMispred = !ok || tgt != d.NextPC
		f.ind.PushPath(d.NextPC)
	case in.Op == isa.BR:
		tgt, ok := f.ind.Lookup(d.PC)
		s.bpMispred = !ok || tgt != d.NextPC
		f.ind.Update(d.PC, d.NextPC)
	}
	if f.vh != nil && in.VPEligible() {
		f.vh.Hash(d.PC, &s.vp)
	}
}

// direct looks up and trains the BTB for a taken direct branch, pushes
// the target into the indirect cache's path history, and reports a BTB
// miss or mistarget.
func (f *frontend) direct(d *emu.DynInst) bool {
	tgt, ok := f.btb.Lookup(d.PC)
	f.btb.Insert(d.PC, d.NextPC)
	f.ind.PushPath(d.NextPC)
	return !ok || tgt != d.NextPC
}

// peek returns the record at the fetch cursor, or nil at the end of the
// program.
//
//tvp:hotpath
func (r *runAhead) peek() *raSlot {
	if r.cursor == r.avail && !r.receive() {
		return nil
	}
	return &r.slots[r.cursor&raMask]
}

// receive waits for the next filled chunk. It reports false at the end
// of the stream, and re-raises the producer's panic there if the stream
// ended on one.
func (r *runAhead) receive() bool {
	for r.cursor == r.avail {
		if r.ended {
			if r.fe.fault != nil {
				panic(r.fe.fault)
			}
			return false
		}
		c := <-r.full
		r.avail, r.ended = c.end, c.last
	}
	return true
}

// advance moves the cursor past the record peek returned.
//
//tvp:hotpath
func (r *runAhead) advance() { r.cursor++ }

// at returns the record of an in-flight instruction: one fetched and not
// yet committed, whose chunk the core therefore still holds.
//
//tvp:hotpath
func (r *runAhead) at(seq uint64) *raSlot { return &r.slots[seq&raMask] }

// rewind moves the cursor back to seq, so a flush refetches from there.
// It panics if seq lies ahead of the cursor or behind the oldest slot the
// core still holds.
func (r *runAhead) rewind(seq uint64) {
	if seq > r.cursor {
		panic(fmt.Sprintf("pipeline: rewind forward (seq %d > cursor %d)", seq, r.cursor))
	}
	if seq < r.held {
		panic(fmt.Sprintf("pipeline: rewind behind the oldest held slot (seq %d < %d)", seq, r.held))
	}
	r.cursor = seq
}

// retire is called for each committed instruction, in order. Committing
// the last instruction of a chunk hands the chunk back to the producer.
//
//tvp:hotpath
func (r *runAhead) retire(seq uint64) {
	if (seq+1)&(raChunk-1) == 0 {
		r.held = seq + 1
		r.free <- true
	}
}
