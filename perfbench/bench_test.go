package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// tiny scales a benchmark workload down to two workloads and a few
// thousand instructions per core.
func tiny(sp spec) spec {
	sp.Instr = 3000
	sp.Workloads = []string{"mcf_m", "mix_1"}
	sp.Sims = 10 // 2 workloads x 5 configurations, in both figures
	if sp.Warmup > 0 {
		sp.Warmup = 200_000
	}
	return sp
}

func TestTinySweeps(t *testing.T) {
	for _, full := range specs {
		sp := tiny(full)
		t.Run(sp.Name, func(t *testing.T) {
			seed := refSeeds[0]
			rec, err := runSweep(sweepOpts{spec: sp, seed: seed, dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if len(rec.Failures) > 0 || len(rec.Errors) > 0 || rec.Sims != sp.Sims {
				t.Fatalf("recording sweep: %d of %d sims, failures %v %v", rec.Sims, sp.Sims, rec.Failures, rec.Errors)
			}
			ref := &refDigests{Table: rec.TableDigest, Sims: rec.Digests}

			traced, err := runSweep(sweepOpts{spec: sp, seed: seed, traced: true, dir: t.TempDir(), ref: ref})
			if err != nil {
				t.Fatal(err)
			}
			if len(traced.Failures) > 0 || len(traced.Errors) > 0 {
				t.Fatalf("traced sweep failed the reference: %v %v", traced.Failures, traced.Errors)
			}
			if !reflect.DeepEqual(traced.Digests, rec.Digests) || traced.TableDigest != rec.TableDigest {
				t.Fatal("traced and untraced digests differ")
			}
			// Every configuration but the producer of each workload's
			// warmup image restores it.
			if sp.Warmup > 0 && traced.Warm != 8 {
				t.Errorf("warm starts = %d, want 8", traced.Warm)
			}

			plain, err := runSweep(sweepOpts{spec: sp, seed: seed, dir: t.TempDir(), ref: ref})
			if err != nil {
				t.Fatal(err)
			}
			kids := []child{{sweepResult: *plain, SetupS: 0.1, CPUS: 1}, {sweepResult: *traced}}
			for _, trace := range []bool{false, true} {
				out := aggregate(sp, kids, trace)
				if !out.Correct || out.Failed != 0 || out.Attempted != 2*sp.Sims {
					t.Errorf("trace=%v: correct=%v attempted=%d failed=%d", trace, out.Correct, out.Attempted, out.Failed)
				}
				want := endToEnd
				if trace {
					want = perLayer
				}
				for _, m := range want {
					if _, ok := out.Metrics[m.Name]; !ok {
						t.Errorf("trace=%v: metric %s not emitted", trace, m.Name)
					}
				}
				if len(out.Metrics) != len(want) {
					t.Errorf("trace=%v: %d metrics emitted, want %d", trace, len(out.Metrics), len(want))
				}
			}

			// A corrupted reference digest must fail exactly that simulation.
			bad := &refDigests{Table: ref.Table, Sims: map[string]string{}}
			victim := "mix_1/DIMM+chip"
			for id, d := range ref.Sims {
				bad.Sims[id] = d
			}
			if _, ok := bad.Sims[victim]; !ok {
				t.Fatalf("no reference digest for %s", victim)
			}
			bad.Sims[victim] = strings.Repeat("0", 64)
			got, err := runSweep(sweepOpts{spec: sp, seed: seed, dir: t.TempDir(), ref: bad})
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Failures) != 1 || !strings.HasPrefix(got.Failures[0], victim+": ") {
				t.Fatalf("corrupted reference: failures %v, want only %s", got.Failures, victim)
			}
			if out := aggregate(sp, []child{{sweepResult: *got}}, false); out.Correct || out.Failed != 1 {
				t.Errorf("corrupted reference: correct=%v failed=%d", out.Correct, out.Failed)
			}
		})
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric lists and the
// metrics this program emits the same.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	for i, w := range bj.Workloads {
		if i >= len(specs) || specs[i].Name != w.Name {
			t.Errorf("BENCHMARK.json workload %d is %s; specs disagree", i, w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program emits %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}
