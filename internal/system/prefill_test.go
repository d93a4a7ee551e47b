package system

import (
	"bytes"
	"testing"

	"fpb/internal/cache"
	"fpb/internal/ckpt"
	"fpb/internal/sim"
	"fpb/internal/workload"
)

// prefillForward is the reference prefill: the stream inserts replayed
// through the LRU whether or not they repeat a line, then the hot region.
func prefillForward(h *cache.Hierarchy, gen *workload.Generator, prof workload.CoreProfile) {
	if prof.RPKI > 0 {
		newStreamFill(h, gen, prof).forward(h.L3())
	}
	warmHot(h, gen)
}

// coreGenerators derives every core's generator exactly as build does.
func coreGenerators(cfg *sim.Config, wl workload.Workload) []*workload.Generator {
	root := sim.NewRNG(cfg.Seed)
	gens := make([]*workload.Generator, len(wl.Cores))
	for i, prof := range wl.Cores {
		gens[i] = workload.NewGenerator(prof, cfg, i, root.Derive(uint64(1000+i)).Derive(1))
	}
	return gens
}

// sameState reports whether two hierarchies hold byte-identical model
// state — every level's geometry, LRU tick, tags, dirty bits and LRU ages —
// by encoding each as a delta against want: equal state encodes to equal
// bytes, and any differing way or tick shows up in got's delta.
func sameState(got, want *cache.Hierarchy) bool {
	g, w := ckpt.NewWriter(), ckpt.NewWriter()
	got.SaveDelta(g, want)
	want.SaveDelta(w, want)
	return bytes.Equal(g.Finish(), w.Finish())
}

// allWorkloads names the 13 simulated workloads.
func allWorkloads(cores int) []string {
	var names []string
	for _, wl := range workload.All(cores) {
		names = append(names, wl.Name)
	}
	return names
}

// checkPrefillPaths builds every core of each named workload through
// prefill and through prefillForward, requires byte-identical L1/L2/L3
// state and counters, and reports how many core slots took the direct
// construction and how many fell back to the forward loop.
func checkPrefillPaths(t *testing.T, cfg sim.Config, names ...string) (direct, fallback int) {
	t.Helper()
	for _, name := range names {
		wl, err := workload.ByName(name, cfg.Cores)
		if err != nil {
			t.Fatal(err)
		}
		for i, gen := range coreGenerators(&cfg, wl) {
			prof := wl.Cores[i]
			got, want := cache.NewHierarchy(&cfg), cache.NewHierarchy(&cfg)
			prefill(got, gen, prof)
			prefillForward(want, gen, prof)
			if prof.RPKI > 0 && newStreamFill(got, gen, prof).distinct() {
				direct++
			} else {
				fallback++
			}
			if !sameState(got, want) {
				t.Errorf("L3 %d MB/%d B, %s core %d: prefill state differs from the forward loop",
					cfg.L3SizeMB, cfg.L3LineB, name, i)
			}
			for _, lv := range [][2]*cache.Cache{{got.L1(), want.L1()}, {got.L2(), want.L2()}, {got.L3(), want.L3()}} {
				gh, gm := lv[0].Stats()
				wh, wm := lv[1].Stats()
				if gh != wh || gm != wm {
					t.Errorf("%s core %d: hits/misses %d/%d, want %d/%d", name, i, gh, gm, wh, wm)
				}
			}
			got.Release()
			want.Release()
		}
	}
	return direct, fallback
}

// TestPrefillMatchesForwardLoop is the tier-1 slice of the prefill
// equivalence matrix (prefill_matrix_test.go runs all of it under the
// fpbdebug tag): every workload and core slot at the Table 1 geometry, and
// one homogeneous workload and one mix at 128 B L3 lines and at a 128 MB L3.
// A 128 MB L3 holds more lines than a fixed-footprint stream region, so
// mcf_m's streams wrap onto themselves there and must take the fallback.
func TestPrefillMatchesForwardLoop(t *testing.T) {
	cfg := sim.DefaultConfig()
	if direct, fallback := checkPrefillPaths(t, cfg, allWorkloads(cfg.Cores)...); fallback != 0 {
		t.Errorf("Table 1 geometry: %d core slots fell back (%d direct), want none", fallback, direct)
	}

	cfg = sim.DefaultConfig()
	cfg.L3LineB = 128
	if direct, _ := checkPrefillPaths(t, cfg, "mcf_m", "mix_1"); direct == 0 {
		t.Error("128 B L3 lines: no core slot took the direct construction")
	}

	cfg = sim.DefaultConfig()
	cfg.L3SizeMB = 128
	if direct, fallback := checkPrefillPaths(t, cfg, "mcf_m"); direct != 0 || fallback != cfg.Cores {
		t.Errorf("128 MB L3, mcf_m: %d direct / %d fallback, want all %d to fall back", direct, fallback, cfg.Cores)
	}
	checkPrefillPaths(t, cfg, "mix_1")
}
