package obs

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

var (
	promNameRE   = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promSampleRE = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{le="[^"]+"\})? (NaN|[+-]?Inf|[-+0-9.eE]+)$`)
)

func TestPromName(t *testing.T) {
	for in, want := range map[string]string{
		"serve.jobs.accepted":        "serve_jobs_accepted",
		"power.chip.3.tokens_in_use": "power_chip_3_tokens_in_use",
		"3bad":                       "_3bad",
		"already_fine:total":         "already_fine:total",
		"spaces and-dashes":          "spaces_and_dashes",
	} {
		if got := PromName(in); got != want {
			t.Errorf("PromName(%q) = %q, want %q", in, got, want)
		}
		if !promNameRE.MatchString(PromName(in)) {
			t.Errorf("PromName(%q) = %q is not a valid metric name", in, PromName(in))
		}
	}
}

// TestWritePrometheusValid builds a registry shaped like the serving
// daemon's and checks every line of the exposition: names valid, HELP/TYPE
// present for every series, samples parseable, ordering stable.
func TestWritePrometheusValid(t *testing.T) {
	r := NewRegistry()
	r.Counter("serve.jobs.accepted").Add(12)
	r.Counter("serve.jobs.done").Add(10)
	r.Gauge("serve.queue.depth", func() float64 { return 3 })
	r.SetHelp("serve.queue.depth", "jobs waiting for a worker")
	h := r.Histogram("serve.job.sim_ms", []float64{10, 100, 1000})
	h.Observe(5)
	h.Observe(50)
	h.Observe(5000)
	r.ExecGauge("run.phase.measure_ms", func() float64 { return 7 })

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()

	var sampleNames []string
	typeSeen := map[string]string{}
	helpSeen := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			parts := strings.SplitN(line[len("# HELP "):], " ", 2)
			if len(parts) != 2 || !promNameRE.MatchString(parts[0]) {
				t.Fatalf("bad HELP line: %q", line)
			}
			helpSeen[parts[0]] = true
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.SplitN(line[len("# TYPE "):], " ", 2)
			if len(parts) != 2 || !promNameRE.MatchString(parts[0]) {
				t.Fatalf("bad TYPE line: %q", line)
			}
			if parts[1] != "counter" && parts[1] != "gauge" && parts[1] != "histogram" {
				t.Fatalf("bad TYPE value: %q", line)
			}
			typeSeen[parts[0]] = parts[1]
		default:
			m := promSampleRE.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("unparseable sample line: %q", line)
			}
			sampleNames = append(sampleNames, m[1])
		}
	}
	if typeSeen["serve_jobs_accepted"] != "counter" ||
		typeSeen["serve_queue_depth"] != "gauge" ||
		typeSeen["serve_job_sim_ms"] != "histogram" {
		t.Fatalf("TYPE lines wrong: %v", typeSeen)
	}
	if !helpSeen["serve_queue_depth"] {
		t.Fatal("missing HELP for serve_queue_depth")
	}
	// Histogram triplet, with cumulative buckets ending in +Inf.
	for _, want := range []string{
		`serve_job_sim_ms_bucket{le="10"} 1`,
		`serve_job_sim_ms_bucket{le="100"} 2`,
		`serve_job_sim_ms_bucket{le="1000"} 2`,
		`serve_job_sim_ms_bucket{le="+Inf"} 3`,
		`serve_job_sim_ms_sum 5055`,
		`serve_job_sim_ms_count 3`,
		`run_phase_measure_ms 7`,
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	// Two expositions must be byte-identical (stable ordering).
	var buf2 bytes.Buffer
	if err := r.WritePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("exposition is not byte-stable across writes")
	}
}

func TestParsePrometheusRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.count").Add(4)
	r.Gauge("b.gauge", func() float64 { return 2.5 })
	h := r.Histogram("c.lat_ms", []float64{10, 100})
	h.Observe(5)
	h.Observe(500)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples, bad := ParsePrometheus(buf.String())
	if len(bad) != 0 {
		t.Fatalf("unparseable lines: %v", bad)
	}
	if samples["a_count"] != 4 || samples["b_gauge"] != 2.5 || samples["c_lat_ms_count"] != 2 {
		t.Fatalf("samples = %v", samples)
	}
	if v, ok := HistogramQuantile(samples, "c_lat_ms", 0.5); !ok || v != 10 {
		t.Fatalf("p50 from scrape = %v, %v; want 10", v, ok)
	}
	if v, ok := HistogramQuantile(samples, "c_lat_ms", 0.99); !ok || v != 100 {
		t.Fatalf("p99 from scrape = %v, %v; want 100 (largest finite bound)", v, ok)
	}
	if _, ok := HistogramQuantile(samples, "missing", 0.5); ok {
		t.Fatal("quantile of missing metric reported ok")
	}
}

// TestEncodeSeriesGolden freezes the legacy JSON byte format: this exact
// output predates the Prometheus exposition and is what stored sim results
// and the /metrics JSON view use, so it must never drift.
func TestEncodeSeriesGolden(t *testing.T) {
	series := map[string]float64{
		"serve.jobs.accepted":  3,
		"serve.latency_ms.p50": 12.5,
		"mem.wrq.depth":        0,
		"weird.nan":            nan(),
	}
	const want = "{\n" +
		"  \"mem.wrq.depth\": 0,\n" +
		"  \"serve.jobs.accepted\": 3,\n" +
		"  \"serve.latency_ms.p50\": 12.5,\n" +
		"  \"weird.nan\": null\n" +
		"}\n"
	var buf bytes.Buffer
	if err := EncodeSeries(&buf, series); err != nil {
		t.Fatal(err)
	}
	if buf.String() != want {
		t.Fatalf("legacy JSON format drifted:\ngot:\n%q\nwant:\n%q", buf.String(), want)
	}
}

func nan() float64 {
	v := 0.0
	return v / v
}
