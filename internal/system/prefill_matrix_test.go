//go:build fpbdebug

package system

import (
	"testing"

	"fpb/internal/sim"
)

// TestPrefillMatrixMatchesForwardLoop runs the full prefill equivalence
// matrix: all 13 workloads × every core slot at the Table 1 geometry, at
// 64 B and 128 B L3 lines and at 8, 16, 64 and 128 MB L3s. It takes about
// a minute, so it runs only under the fpbdebug tag
// (scripts/check.sh); TestPrefillMatchesForwardLoop is the tier-1 slice.
func TestPrefillMatrixMatchesForwardLoop(t *testing.T) {
	geoms := []struct {
		name string
		mut  func(*sim.Config)
	}{
		{"table1", func(*sim.Config) {}},
		{"line64", func(c *sim.Config) { c.L3LineB = 64 }},
		{"line128", func(c *sim.Config) { c.L3LineB = 128 }},
		{"l3-8mb", func(c *sim.Config) { c.L3SizeMB = 8 }},
		{"l3-16mb", func(c *sim.Config) { c.L3SizeMB = 16 }},
		{"l3-64mb", func(c *sim.Config) { c.L3SizeMB = 64 }},
		{"l3-128mb", func(c *sim.Config) { c.L3SizeMB = 128 }},
	}
	var direct, fallback int
	for _, g := range geoms {
		cfg := sim.DefaultConfig()
		g.mut(&cfg)
		d, f := checkPrefillPaths(t, cfg, allWorkloads(cfg.Cores)...)
		t.Logf("%s: %d direct, %d fallback", g.name, d, f)
		direct += d
		fallback += f
	}
	if direct == 0 || fallback == 0 {
		t.Errorf("matrix exercised %d direct and %d fallback core slots; want both paths", direct, fallback)
	}
}
