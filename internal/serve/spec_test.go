package serve

import (
	"sync"
	"testing"

	"fpb/internal/exp"
	"fpb/internal/sim"
	"fpb/internal/system"
)

// TestJobMemoryAdmitsEveryPaperConfig runs every experiment against a
// backend that only records the configs it is asked to simulate, and
// checks that each one resolves: the per-job memory bound must never
// refuse a paper configuration.
func TestJobMemoryAdmitsEveryPaperConfig(t *testing.T) {
	var mu sync.Mutex
	var cfgs []sim.Config
	r := exp.NewRunner(exp.Options{
		InstrPerCore: 1000,
		Workers:      1,
		Backend: func(cfg sim.Config, wl string) (system.Result, error) {
			mu.Lock()
			cfgs = append(cfgs, cfg)
			mu.Unlock()
			return fakeResult(cfg, wl), nil
		},
	})
	for _, e := range exp.All() {
		if _, err := e.Run(r); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
	}
	if len(cfgs) == 0 {
		t.Fatal("no experiment asked the backend for a simulation")
	}
	var most float64
	var mostCfg sim.Config
	for _, cfg := range cfgs {
		c := cfg
		if _, _, err := (JobSpec{Workload: "mcf_m", Config: &c}).Resolve(); err != nil {
			t.Errorf("paper config refused: %v", err)
		}
		if b, _ := jobMemory(&cfg); b > most {
			most, mostCfg = b, cfg
		}
	}
	t.Logf("%d configs; largest estimate %.1f MB (L3 %d MB, %d B lines, %d cores)",
		len(cfgs), most/(1<<20), mostCfg.L3SizeMB, mostCfg.L3LineB, mostCfg.Cores)
}
