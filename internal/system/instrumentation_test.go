package system

import (
	"io"
	"reflect"
	"testing"

	"fpb/internal/obs"
	"fpb/internal/sim"
	"fpb/internal/workload"
)

// TestInstrumentationDoesNotChangeResults is the observability determinism
// guard: running the Fig. 18 configuration with a full-firehose tracer
// attached must produce a Result — every scalar and every Metrics entry —
// bit-identical to a bare run. A regression here means instrumentation
// leaked into model output.
//
// Probes are deliberately NOT enabled: a probe is a simulation event and
// legitimately changes sim.events_run. Tracing and metrics registration
// must be free.
func TestInstrumentationDoesNotChangeResults(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Scheme = sim.SchemeGCPIPMMR
	cfg.InstrPerCore = 20_000
	const wlName = "mcf_m"

	base, err := RunWorkload(cfg, wlName)
	if err != nil {
		t.Fatal(err)
	}

	wl, err := workload.ByName(wlName, cfg.Cores)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := Build(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Release()
	// Every category except "engine", into a discarded JSONL stream:
	// emission must be observationally free.
	tr := obs.NewTracer(obs.NewJSONL(io.Discard))
	sys.EnableTrace(tr)
	res := sys.Run()
	res.Workload = wlName
	if err := tr.Close(); err != nil {
		t.Fatalf("tracer: %v", err)
	}
	if !reflect.DeepEqual(base, res) {
		t.Errorf("instrumented run diverged from bare run:\n  base: %+v\n  got:  %+v", base, res)
	}
}
