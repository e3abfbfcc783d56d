package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestIPCAndRatios(t *testing.T) {
	s := Sim{Cycles: 1000, ArchInsts: 2500, UOps: 2750}
	if got := s.IPC(); got != 2.5 {
		t.Errorf("IPC = %v", got)
	}
	if got := s.UopsPerInst(); got != 1.1 {
		t.Errorf("UopsPerInst = %v", got)
	}
	var z Sim
	if z.IPC() != 0 || z.UopsPerInst() != 0 {
		t.Error("zero stats must not divide by zero")
	}
}

func TestVPMetrics(t *testing.T) {
	s := Sim{VPEligible: 1000, VPCorrectUsed: 100, VPIncorrectUsed: 1}
	if got := s.VPCoverage(); got != 0.1 {
		t.Errorf("coverage = %v", got)
	}
	if got := s.VPAccuracy(); math.Abs(got-100.0/101) > 1e-12 {
		t.Errorf("accuracy = %v", got)
	}
	var z Sim
	if z.VPAccuracy() != 1 {
		t.Error("accuracy with no used predictions is vacuously 1")
	}
}

func TestGeomean(t *testing.T) {
	if g := Geomean([]float64{2, 8}); g != 4 {
		t.Errorf("geomean(2,8) = %v", g)
	}
	if g := Geomean(nil); g != 0 {
		t.Errorf("geomean(nil) = %v", g)
	}
	if g := GeomeanSpeedup([]float64{0, 0, 0}); g != 0 {
		t.Errorf("geomean speedup of zeros = %v", g)
	}
	// +100% and -50% cancel geometrically.
	if g := GeomeanSpeedup([]float64{100, -50}); math.Abs(g) > 1e-9 {
		t.Errorf("geomean speedup = %v, want 0", g)
	}
}

func TestHMeanAMean(t *testing.T) {
	if h := HMean([]float64{1, 1}); h != 1 {
		t.Errorf("hmean = %v", h)
	}
	if h := HMean([]float64{2, 6}); math.Abs(h-3) > 1e-12 {
		t.Errorf("hmean(2,6) = %v, want 3", h)
	}
	if a := AMean([]float64{2, 6}); a != 4 {
		t.Errorf("amean = %v", a)
	}
}

func TestSubFieldwise(t *testing.T) {
	a := Sim{Cycles: 100, ArchInsts: 50, SpSRElim: 7, L3Misses: 3}
	b := Sim{Cycles: 40, ArchInsts: 20, SpSRElim: 2, L3Misses: 1}
	d := Sub(&a, &b)
	if d.Cycles != 60 || d.ArchInsts != 30 || d.SpSRElim != 5 || d.L3Misses != 2 {
		t.Errorf("Sub = %+v", d)
	}
}

func TestSubProperty(t *testing.T) {
	// Sub(a, zero) == a and Sub(a, a) == zero for arbitrary counter sets.
	f := func(c, i, u, e uint64) bool {
		a := Sim{Cycles: c, ArchInsts: i, UOps: u, VPEligible: e}
		var zero Sim
		if Sub(&a, &zero) != a {
			return false
		}
		return Sub(&a, &a) == zero
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSpeedup(t *testing.T) {
	base := Sim{Cycles: 100, ArchInsts: 100}
	fast := Sim{Cycles: 80, ArchInsts: 100}
	if got := fast.Speedup(&base); math.Abs(got-25) > 1e-9 {
		t.Errorf("speedup = %v, want 25", got)
	}
}

func TestMPKI(t *testing.T) {
	s := Sim{ArchInsts: 10000, BranchMispredicts: 50, L1DMisses: 120}
	if got := s.BranchMPKI(); got != 5 {
		t.Errorf("MPKI = %v", got)
	}
	if got := s.L1DMPKI(); got != 12 {
		t.Errorf("L1D MPKI = %v", got)
	}
}
