package config

import (
	"errors"
	"strings"
	"testing"
)

func TestDefaultIsValid(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultMatchesTable2(t *testing.T) {
	m := Default()
	// The headline Table 2 numbers.
	checks := []struct {
		name string
		got  int
		want int
	}{
		{"ROB", m.ROBSize, 315},
		{"IQ", m.IQSize, 92},
		{"LQ", m.LQSize, 74},
		{"SQ", m.SQSize, 53},
		{"INT PRF", m.IntPRF, 292},
		{"FP PRF", m.FPPRF, 292},
		{"fetch width", m.FetchWidth, 16},
		{"decode width", m.DecodeWidth, 8},
		{"rename width", m.RenameWidth, 8},
		{"issue width", m.IssueWidth, 15},
		{"TAGE tables", m.BPTables, 15},
		{"BTB entries", m.BTBEntries, 8192},
		{"RAS entries", m.RASEntries, 32},
		{"VTAGE tables", len(m.VP.TableLog2), 8},
		{"VP min hist", m.VP.MinHist, 2},
		{"VP max hist", m.VP.MaxHist, 128},
		{"silencing", m.VP.SilenceCycles, 250},
		{"L1D KB", m.L1D.SizeBytes >> 10, 128},
		{"L2 KB", m.L2.SizeBytes >> 10, 1024},
		{"L3 MB", m.L3.SizeBytes >> 20, 8},
		{"L1D load-to-use", m.L1D.LoadToUse, 4},
		{"L2 load-to-use", m.L2.LoadToUse, 12},
		{"L3 load-to-use", m.L3.LoadToUse, 37},
		{"SSIT", m.SSITEntries, 2048},
		{"LFST", m.LFSTEntries, 2048},
		{"stride degree", m.StrideDegree, 4},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	if m.VP.Mode != VPOff || m.SpSR || m.NineBitIdiom {
		t.Error("default machine must be the paper's baseline")
	}
	if !m.MoveElim || !m.ZeroOneIdiom {
		t.Error("baseline includes move and 0/1-idiom elimination (§5)")
	}
}

func TestFUPoolMatchesTable2(t *testing.T) {
	m := Default()
	count := func(cap uint32) int {
		n := 0
		for _, f := range m.FUs {
			if f.Classes&cap != 0 {
				n++
			}
		}
		return n
	}
	if got := count(CapIntALU); got != 6 {
		t.Errorf("simple ALUs = %d, want 6 (4 + 2 shared with mul)", got)
	}
	if got := count(CapIntMul); got != 2 {
		t.Errorf("IntMul pipes = %d, want 2", got)
	}
	if got := count(CapIntDiv); got != 1 {
		t.Errorf("IntDiv pipes = %d, want 1", got)
	}
	if got := count(CapFPALU); got != 4 {
		t.Errorf("FP pipes = %d, want 4 (3 + 1 with divider)", got)
	}
	if got := count(CapFPDiv); got != 1 {
		t.Errorf("FPDiv pipes = %d, want 1", got)
	}
	if got := count(CapLoad); got != 2 {
		t.Errorf("load pipes = %d, want 2", got)
	}
	if got := count(CapStore); got != 2 {
		t.Errorf("store pipes = %d, want 2", got)
	}
	for _, f := range m.FUs {
		if f.Classes&(CapIntDiv|CapFPDiv) != 0 && f.Pipelined {
			t.Errorf("%s: dividers are not pipelined in Table 2", f.Name)
		}
	}
}

func TestWithVP(t *testing.T) {
	for _, mode := range []VPMode{MVP, TVP, GVP} {
		m := Default().WithVP(mode)
		if m.VP.Mode != mode {
			t.Errorf("mode not applied")
		}
		wantNine := mode == TVP || mode == GVP
		if m.NineBitIdiom != wantNine {
			t.Errorf("%v: NineBitIdiom = %v (inlining hardware implies it)", mode, m.NineBitIdiom)
		}
		if err := m.Validate(); err != nil {
			t.Errorf("%v: %v", mode, err)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := Default()
	b := a.Clone()
	b.FUs[0].Name = "mutated"
	b.VP.TableLog2[0] = 3
	if a.FUs[0].Name == "mutated" || a.VP.TableLog2[0] == 3 {
		t.Error("Clone must not share slices")
	}
}

func TestBudgetScaleClampsAndScales(t *testing.T) {
	m := Default().WithVPBudgetScale(1)
	for i, l := range m.VP.TableLog2 {
		if l != Default().VP.TableLog2[i]+1 {
			t.Errorf("table %d not scaled", i)
		}
	}
	tiny := Default().WithVPBudgetScale(-20)
	for _, l := range tiny.VP.TableLog2 {
		if l < 4 {
			t.Errorf("scale must clamp at 2^4, got 2^%d", l)
		}
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	bad := func(mut func(*Machine)) *Machine {
		m := Default()
		mut(m)
		return m
	}
	cases := map[string]*Machine{
		"zero width":      bad(func(m *Machine) { m.FetchWidth = 0 }),
		"zero ROB":        bad(func(m *Machine) { m.ROBSize = 0 }),
		"tiny PRF":        bad(func(m *Machine) { m.IntPRF = 4 }),
		"no FUs":          bad(func(m *Machine) { m.FUs = nil }),
		"VP geometry":     bad(func(m *Machine) { m.VP.TagBits = m.VP.TagBits[:3] }),
		"MVP with 9-bit":  bad(func(m *Machine) { m.VP.Mode = MVP; m.NineBitIdiom = true }),
		"bad cache shape": bad(func(m *Machine) { m.L1D.SizeBytes = 100 }),
	}
	for name, m := range cases {
		if err := m.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a broken configuration", name)
		}
	}
}

func TestValidateBoundsMSHRs(t *testing.T) {
	levels := []struct {
		name  string
		field func(*Machine) *CacheConfig
	}{
		{"L1I", func(m *Machine) *CacheConfig { return &m.L1I }},
		{"L1D", func(m *Machine) *CacheConfig { return &m.L1D }},
		{"L2", func(m *Machine) *CacheConfig { return &m.L2 }},
		{"L3", func(m *Machine) *CacheConfig { return &m.L3 }},
	}
	cases := []struct {
		mshrs int
		ok    bool
	}{{-1, false}, {0, false}, {1, true}, {56, true}, {MaxMSHRs, true}, {MaxMSHRs + 1, false}, {1 << 20, false}}
	for _, l := range levels {
		for _, c := range cases {
			m := Default()
			l.field(m).MSHRs = c.mshrs
			err := m.Validate()
			if (err == nil) != c.ok {
				t.Errorf("%s MSHRs=%d: Validate() = %v, want ok=%v", l.name, c.mshrs, err, c.ok)
				continue
			}
			if err != nil && !strings.Contains(err.Error(), l.name+" has") {
				t.Errorf("%s MSHRs=%d: error %q does not name the level", l.name, c.mshrs, err)
			}
		}
	}
}

// TestValidateBoundsWindow: ROBSize + FetchQueue + DecodeQueue must fit
// the run-ahead ring with one chunk to spare; anything larger fails with
// ErrWindowTooLarge. Table 2's window and fuzzgen's 64-entry ROB are far
// inside the bound.
func TestValidateBoundsWindow(t *testing.T) {
	fq := Default().FetchQueue
	edge := MaxWindow - fq - DecodeQueue
	for _, c := range []struct {
		rob, fq int
		ok      bool
	}{
		{315, fq, true},
		{64, fq, true},
		{edge, fq, true},
		{edge + 1, fq, false},
		{315, MaxWindow, false},
		{4000, fq, false},
		{315, 0, false},
	} {
		m := Default()
		m.ROBSize, m.FetchQueue = c.rob, c.fq
		err := m.Validate()
		if (err == nil) != c.ok {
			t.Errorf("ROB %d, fetch queue %d: Validate() = %v, want ok=%v", c.rob, c.fq, err, c.ok)
		}
		if !c.ok && c.fq > 0 && !errors.Is(err, ErrWindowTooLarge) {
			t.Errorf("ROB %d, fetch queue %d: error %v is not ErrWindowTooLarge", c.rob, c.fq, err)
		}
	}
}

func TestVPModeString(t *testing.T) {
	names := map[VPMode]string{VPOff: "Baseline", MVP: "Min. VP", TVP: "Tar. VP", GVP: "Gen. VP"}
	for m, want := range names {
		if m.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(m), m.String(), want)
		}
	}
}

func TestCacheSets(t *testing.T) {
	c := CacheConfig{SizeBytes: 128 << 10, Assoc: 8, LineBytes: 64}
	if c.Sets() != 256 {
		t.Errorf("sets = %d, want 256", c.Sets())
	}
}

func TestParseVPMode(t *testing.T) {
	cases := []struct {
		in   string
		want VPMode
		ok   bool
	}{
		{"", VPOff, true}, {"off", VPOff, true}, {"none", VPOff, true}, {"baseline", VPOff, true},
		{"mvp", MVP, true}, {"min", MVP, true},
		{"tvp", TVP, true}, {"tar", TVP, true}, {"TVP", TVP, true},
		{"gvp", GVP, true}, {"gen", GVP, true}, {"Gen", GVP, true},
		{"bogus", VPOff, false}, {"tvp ", VPOff, false}, {"Tar. VP", VPOff, false},
	}
	for _, c := range cases {
		got, err := ParseVPMode(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("ParseVPMode(%q) = %v, %v; want %v, ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
}
