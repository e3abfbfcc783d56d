package verify_test

import (
	"sort"
	"testing"

	"repro/internal/isa"
	"repro/internal/isa/verify"
	"repro/internal/prog"
)

// cfgExpect pins down the feasible CFG a construction must produce:
// exact successor sets for chosen instructions, indices that must stay
// unreachable, and whether the program passes overall.
type cfgExpect struct {
	succs       map[int][]int
	unreachable []int
	ok          bool
}

// TestCFGConstruction is the table-driven CFG golden set: each case
// builds one control-flow idiom and asserts the verifier recovers its
// exact edge structure (not merely a sound over-approximation).
func TestCFGConstruction(t *testing.T) {
	cases := []struct {
		name  string
		build func() (*prog.Program, cfgExpect)
	}{
		{"jump table enumerates all arms", func() (*prog.Program, cfgExpect) {
			// The fuzzgen computed-goto idiom with a loop-carried index:
			// the BR must resolve to exactly the four table arms.
			b := prog.NewBuilder("cfg_jt")
			jt := b.AllocWords(4)
			var arms [4]prog.Label
			join := b.NewLabel()
			loop := b.NewLabel()
			for i := range arms {
				arms[i] = b.NewLabel()
				b.SetWordLabel(jt+uint64(i)*8, arms[i])
			}
			b.MovImm(isa.X0, 0)
			b.Bind(loop)
			b.AndI(isa.X1, isa.X0, 3)
			b.MovAddr(isa.X2, jt)
			b.LdrR(isa.X3, isa.X2, isa.X1, 3, 8)
			brIdx := b.Len()
			b.Br(isa.X3)
			armIdx := make([]int, 4)
			for i := range arms {
				b.Bind(arms[i])
				armIdx[i] = b.Len()
				b.B(join)
			}
			b.Bind(join)
			b.AddI(isa.X0, isa.X0, 1)
			b.CmpI(isa.X0, 4)
			b.BCond(isa.NE, loop)
			b.Halt()
			return b.Build(), cfgExpect{ok: true, succs: map[int][]int{brIdx: armIdx}}
		}},
		{"ret fans out to its call sites", func() (*prog.Program, cfgExpect) {
			// Two BL sites into one leaf: the RET's successor set is the
			// union of both return points, and each BL has exactly the
			// leaf entry as successor (the fall-through is not an edge).
			b := prog.NewBuilder("cfg_ret")
			leaf := b.NewLabel()
			b.Bl(leaf) // 0
			b.Bl(leaf) // 1
			b.Halt()   // 2
			b.Bind(leaf)
			leafIdx := b.Len()
			b.AddI(isa.X0, isa.X0, 1)
			retIdx := b.Len()
			b.Ret()
			return b.Build(), cfgExpect{ok: true, succs: map[int][]int{
				0:      {leafIdx},
				1:      {leafIdx},
				retIdx: {1, 2},
			}}
		}},
		{"infeasible edge prunes a branch arm", func() (*prog.Program, cfgExpect) {
			// CBZ on a register proven zero: only the taken edge exists,
			// and the dead fall-through block is reported unreachable.
			b := prog.NewBuilder("cfg_cbz")
			tgt := b.NewLabel()
			b.MovImm(isa.X0, 0)
			cbzIdx := b.Len()
			b.Cbz(isa.X0, tgt)
			deadIdx := b.Len()
			b.AddI(isa.X1, isa.X1, 7)
			b.Bind(tgt)
			tgtIdx := b.Len()
			b.Halt()
			return b.Build(), cfgExpect{
				ok:          true,
				succs:       map[int][]int{cbzIdx: {tgtIdx}},
				unreachable: []int{deadIdx},
			}
		}},
		{"dead region behind an unconditional branch", func() (*prog.Program, cfgExpect) {
			b := prog.NewBuilder("cfg_dead")
			over := b.NewLabel()
			b.B(over) // 0
			dead0 := b.Len()
			b.AddI(isa.X0, isa.X0, 1)
			b.AddI(isa.X0, isa.X0, 2)
			b.Bind(over)
			b.Halt()
			return b.Build(), cfgExpect{
				ok:          true,
				succs:       map[int][]int{0: {3}},
				unreachable: []int{dead0, dead0 + 1},
			}
		}},
		{"masked indirect branch stays inside the text", func() (*prog.Program, cfgExpect) {
			// BR through a two-entry table indexed by an unknown-feasible
			// bit: both arms appear, nothing else does.
			b := prog.NewBuilder("cfg_mask")
			jt := b.AllocWords(2)
			a0, a1 := b.NewLabel(), b.NewLabel()
			loop := b.NewLabel()
			b.SetWordLabel(jt, a0)
			b.SetWordLabel(jt+8, a1)
			b.MovImm(isa.X0, 0)
			b.Bind(loop)
			b.AndI(isa.X1, isa.X0, 1)
			b.MovAddr(isa.X2, jt)
			b.LdrR(isa.X3, isa.X2, isa.X1, 3, 8)
			brIdx := b.Len()
			b.Br(isa.X3)
			b.Bind(a0)
			arm0 := b.Len()
			join := b.NewLabel()
			b.B(join)
			b.Bind(a1)
			arm1 := b.Len()
			b.Nop()
			b.Bind(join)
			b.AddI(isa.X0, isa.X0, 1)
			b.CmpI(isa.X0, 2)
			b.BCond(isa.NE, loop)
			b.Halt()
			return b.Build(), cfgExpect{ok: true, succs: map[int][]int{brIdx: {arm0, arm1}}}
		}},
	}

	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			p, want := c.build()
			res := verify.Program(p)
			if got := res.OK(); got != want.ok {
				for _, d := range res.Diags {
					t.Logf("diag: %s", d)
				}
				t.Fatalf("OK() = %v, want %v", got, want.ok)
			}
			for idx, succs := range want.succs {
				got := append([]int(nil), res.Succs[idx]...)
				sort.Ints(got)
				wantS := append([]int(nil), succs...)
				sort.Ints(wantS)
				if !equalInts(got, wantS) {
					t.Errorf("succs[%d] = %v, want %v", idx, got, wantS)
				}
			}
			for _, idx := range want.unreachable {
				if res.Reachable[idx] {
					t.Errorf("instruction %d reachable, want unreachable", idx)
				}
			}
			// Every unreachable index must also be called out by an
			// unreachable Info diagnostic covering it.
			for _, idx := range want.unreachable {
				if !coveredByUnreachableDiag(res, idx) {
					t.Errorf("no unreachable diagnostic covers instruction %d", idx)
				}
			}
		})
	}
}

func coveredByUnreachableDiag(res *verify.Result, idx int) bool {
	for _, d := range res.Diags {
		if d.Check == "unreachable" && d.Sev == verify.Info && d.Index <= idx {
			// The diagnostic reports a run starting at d.Index; confirm
			// the run actually extends to idx via reachability.
			covered := true
			for i := d.Index; i <= idx; i++ {
				if res.Reachable[i] {
					covered = false
					break
				}
			}
			if covered {
				return true
			}
		}
	}
	return false
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
