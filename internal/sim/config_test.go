package sim

import (
	"math"
	"testing"
)

func TestDefaultConfigValid(t *testing.T) {
	c := DefaultConfig()
	if err := c.Validate(); err != nil {
		t.Fatalf("DefaultConfig invalid: %v", err)
	}
}

func TestDefaultConfigMatchesTable1(t *testing.T) {
	c := DefaultConfig()
	if c.Cores != 8 || c.CPUFreqGHz != 4 {
		t.Errorf("CPU = %d cores @ %g GHz, want 8 @ 4", c.Cores, c.CPUFreqGHz)
	}
	if c.PCMReadCycles != 1000 || c.ResetCycles != 500 || c.SetCycles != 1000 {
		t.Errorf("PCM timing = read %d / reset %d / set %d, want 1000/500/1000",
			c.PCMReadCycles, c.ResetCycles, c.SetCycles)
	}
	if c.DIMMTokens != 560 {
		t.Errorf("DIMMTokens = %g, want 560", c.DIMMTokens)
	}
	if c.L3LineB != 256 || c.L3SizeMB != 32 {
		t.Errorf("L3 = %dMB/%dB lines, want 32MB/256B", c.L3SizeMB, c.L3LineB)
	}
}

func TestLCPTokensEquation4(t *testing.T) {
	c := DefaultConfig()
	// PT_LCP = PT_DIMM * E_LCP / 8 = 560*0.95/8 = 66.5
	if got := c.LCPTokens(); math.Abs(got-66.5) > 1e-9 {
		t.Errorf("LCPTokens = %g, want 66.5", got)
	}
	c.LocalScale = 2
	if got := c.LCPTokens(); math.Abs(got-133) > 1e-9 {
		t.Errorf("2xlocal LCPTokens = %g, want 133", got)
	}
}

func TestGCPTokensDefaultsToOneLCP(t *testing.T) {
	c := DefaultConfig()
	if got, want := c.GCPTokens(), c.LCPTokens(); got != want {
		t.Errorf("GCPTokens = %g, want one LCP = %g", got, want)
	}
	c.GCPMaxTokens = 120
	if got := c.GCPTokens(); got != 120 {
		t.Errorf("explicit GCPTokens = %g, want 120", got)
	}
}

func TestCellsPerLine(t *testing.T) {
	c := DefaultConfig()
	if got := c.CellsPerLine(); got != 1024 { // 256B * 8 / 2 bits
		t.Errorf("CellsPerLine = %d, want 1024 for 256B MLC", got)
	}
	c.BitsPerCell = 1
	if got := c.CellsPerLine(); got != 2048 {
		t.Errorf("SLC CellsPerLine = %d, want 2048", got)
	}
	c.BitsPerCell = 2
	c.L3LineB = 64
	if got := c.CellsPerLine(); got != 256 {
		t.Errorf("64B MLC CellsPerLine = %d, want 256", got)
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero cores", func(c *Config) { c.Cores = 0 }},
		{"bad bits per cell", func(c *Config) { c.BitsPerCell = 3 }},
		{"non-nesting lines", func(c *Config) { c.L2LineB = 48 }},
		{"bad LCP eff", func(c *Config) { c.LCPEff = 0 }},
		{"bad GCP eff", func(c *Config) { c.GCPEff = 1.5 }},
		{"zero tokens", func(c *Config) { c.DIMMTokens = 0 }},
		{"bad set ratio", func(c *Config) { c.SetPowerRatio = 0 }},
		{"tiny iter max", func(c *Config) { c.IterMax = 1 }},
		{"zero queues", func(c *Config) { c.ReadQueueEntries = 0 }},
		{"zero chips", func(c *Config) { c.Chips = 0 }},
	}
	for _, m := range mutations {
		c := DefaultConfig()
		m.mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid config", m.name)
		}
	}
}

// TestValidateCacheGeometry pins the cache checks: every level needs a
// positive size and ways count and room for at least one set, or building
// its cache would panic.
func TestValidateCacheGeometry(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		ok   bool
	}{
		{"zero L3 ways", func(c *Config) { c.L3Ways = 0 }, false},
		{"zero L3 size", func(c *Config) { c.L3SizeMB = 0 }, false},
		{"zero L2 size", func(c *Config) { c.L2SizeKB = 0 }, false},
		{"negative L1 size", func(c *Config) { c.L1SizeKB = -32 }, false},
		{"zero L1 ways", func(c *Config) { c.L1Ways = 0 }, false},
		{"negative L2 ways", func(c *Config) { c.L2Ways = -4 }, false},
		{"L1 below one set", func(c *Config) { c.L1SizeKB, c.L1Ways = 1, 32 }, false},
		{"L3 below one set", func(c *Config) { c.L3SizeMB, c.L3Ways = 1, 8192 }, false},
		{"L1 exactly one set", func(c *Config) { c.L1SizeKB, c.L1Ways = 1, 16 }, true},
		{"L3 exactly one set", func(c *Config) { c.L3SizeMB, c.L3Ways = 1, 4096 }, true},
	}
	for _, tc := range cases {
		c := DefaultConfig()
		tc.mut(&c)
		if err := c.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestValidateIdealAllowsNoTokens(t *testing.T) {
	c := DefaultConfig()
	c.Scheme = SchemeIdeal
	c.DIMMTokens = 0
	if err := c.Validate(); err != nil {
		t.Errorf("Ideal with zero tokens should validate, got %v", err)
	}
}

func TestSchemePredicates(t *testing.T) {
	cases := []struct {
		s                        Scheme
		gcp, ipm, chip, dimm, mr bool
	}{
		{SchemeIdeal, false, false, false, false, false},
		{SchemeDIMMOnly, false, false, false, true, false},
		{SchemeDIMMChip, false, false, true, true, false},
		{SchemeGCP, true, false, true, true, false},
		{SchemeGCPIPM, true, true, true, true, false},
		{SchemeGCPIPMMR, true, true, true, true, true},
		{SchemeIPM, false, true, true, true, false},
		{SchemeIPMMR, false, true, true, true, true},
	}
	for _, tc := range cases {
		c := DefaultConfig()
		c.Scheme = tc.s
		if c.UsesGCP() != tc.gcp {
			t.Errorf("%v UsesGCP = %v", tc.s, c.UsesGCP())
		}
		if c.UsesIPM() != tc.ipm {
			t.Errorf("%v UsesIPM = %v", tc.s, c.UsesIPM())
		}
		if c.EnforcesChipBudget() != tc.chip {
			t.Errorf("%v EnforcesChipBudget = %v", tc.s, c.EnforcesChipBudget())
		}
		if c.EnforcesDIMMBudget() != tc.dimm {
			t.Errorf("%v EnforcesDIMMBudget = %v", tc.s, c.EnforcesDIMMBudget())
		}
		if c.UsesMultiReset() != tc.mr {
			t.Errorf("%v UsesMultiReset = %v", tc.s, c.UsesMultiReset())
		}
	}
}

func TestSchemeAndMappingStrings(t *testing.T) {
	if SchemeGCPIPMMR.String() != "GCP+IPM+MR" {
		t.Errorf("scheme string = %q", SchemeGCPIPMMR.String())
	}
	if MapBIM.String() != "BIM" || MapVIM.String() != "VIM" || MapNaive.String() != "NE" {
		t.Error("mapping strings wrong")
	}
	if Scheme(99).String() == "" || Mapping(99).String() == "" {
		t.Error("unknown enum must still stringify")
	}
}
