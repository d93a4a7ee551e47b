// Command perfbench is the repository's benchmark: it times whole figure
// sweeps of the exp harness, each in a fresh process, and checks every
// simulation result against committed reference digests.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload fig18_short --seed 1 --seconds 35 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the end-to-end
// metrics, --trace 1 the per-layer ones. Regenerate the reference digests
// (only when a change is meant to move simulated results) with
//
//	bash perfbench/run.sh -regen
//
// README.md describes the workloads and metrics.
package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math/bits"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"fpb/internal/sim"
)

// metricDef names one reported metric.
type metricDef struct{ Name, Unit string }

// endToEnd are the --trace 0 metrics, measured with tracing off.
var endToEnd = []metricDef{
	{"sweep_s", "s"}, {"cpu_s", "s"}, {"setup_s", "s"}, {"heap_retained_mb", "MB"},
}

// perLayer are the --trace 1 metrics, reduced from the traced sweeps.
var perLayer = []metricDef{
	{"system.build_cold_ms", "ms"}, {"system.build_hit_ms", "ms"}, {"system.build_share", "ratio"},
	{"run.measure_s", "s"}, {"run.ns_per_event", "ns"}, {"run.ns_per_write", "ns"},
	{"run.ns_per_kinstr", "ns"}, {"run.sim_ns_per_host_ns", "ratio"},
	{"sim.events_run", "count"}, {"mem.writes.done", "count"}, {"mem.reads.demand", "count"},
	{"mem.wc.cancels", "count"}, {"mem.wp.pauses", "count"}, {"core.scheduler.started", "count"},
	{"core.scheduler.admit_failures", "count"}, {"power.grants", "count"},
	{"core.admit_ratio", "ratio"}, {"power.grant_ratio", "ratio"},
	{"run.warmup_s", "s"}, {"ckpt.encode_ms", "ms"}, {"ckpt.image_kb", "KiB"},
	{"ckpt.put_ms", "ms"}, {"ckpt.claim_ms", "ms"}, {"ckpt.restore_ms", "ms"},
	{"ckpt.warm_ratio", "ratio"}, {"exp.worker_busy", "ratio"}, {"result.encode_us", "us"},
	{"go.alloc_mb", "MB"}, {"go.gc_cycles", "count"}, {"go.gc_pause_ms", "ms"},
	{"rss_peak_mb", "MB"}, {"trace.uncovered_s", "s"}, {"trace.overhead_s", "s"}, {"trace.dominant_share", "ratio"},
}

// refSeeds are the simulation seeds the reference digests cover: the
// default configuration's seed and one held out from tuning. Every run
// sweeps both, alternating; --seed picks which goes first.
var refSeeds = []uint64{sim.DefaultConfig().Seed, 0x484f4c44}

//go:embed reference.json
var referenceJSON []byte

// reference holds digests per workload and per simulation seed (decimal).
type reference map[string]map[string]refDigests

type refDigests struct {
	Table string            `json:"table"`
	Sims  map[string]string `json:"sims"`
}

// paperGmeans are the paper's values for the gmeans the model prints.
var paperGmeans = map[string]map[string]float64{
	"fig18": {"GCP": 1.59, "GCP+IPM+MR": 3.4},
	"fig23": {"FPB+WC+WP+WT": 2.758},
}

// childLimit bounds one child sweep; a run must finish within 180 s.
const childLimit = 170 * time.Second

func main() {
	var (
		wlName  = flag.String("workload", "", "workload: fig18_short, fig23_long or fig18_warm")
		seed    = flag.Uint64("seed", 0, "workload seed: picks the reference simulation seed the run starts with")
		seconds = flag.Float64("seconds", 40, "measurement time: fresh-process sweeps run until it is spent")
		trace   = flag.Int("trace", 0, "1: report per-layer metrics from traced sweeps")
		regen   = flag.Bool("regen", false, "rewrite the reference digests (see README.md)")
		child   = flag.Bool("child", false, "internal: run one sweep in this process and print its result")
		inSeed  = flag.Uint64("input-seed", 0, "internal: simulation seed of a -child sweep")
		traced  = flag.Bool("traced", false, "internal: trace a -child sweep")
		record  = flag.Bool("record", false, "internal: a -child sweep records digests without checking them")
		dir     = flag.String("dir", "", "internal: scratch directory of a -child sweep")
	)
	flag.Parse()
	if *child {
		if err := runChild(*wlName, *inSeed, *traced, *record, *dir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *regen {
		if err := regenerate("perfbench/reference.json"); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	sp, ok := specByName(*wlName)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload fig18_short|fig23_long|fig18_warm --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	out, err := measure(sp, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if out != nil {
		line, _ := json.Marshal(out)
		fmt.Println(string(line))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	if err != nil || out == nil || !out.Correct {
		os.Exit(1)
	}
}

// child is one fresh-process sweep as the parent saw it.
type child struct {
	sweepResult
	Seed   uint64  `json:"sim_seed"`
	CPUS   float64 `json:"cpu_s"`
	SetupS float64 `json:"setup_s"`
	WallS  float64 `json:"wall_s"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the final line of standard output.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// measure runs fresh-process sweeps of sp until the time budget is spent,
// prints the report and returns the aggregated result. Sweeps rotate
// through the reference seeds, starting at --seed, so every run covers the
// same inputs. Traced runs alternate untraced and traced sweeps, so the
// tracing overhead is measured on the same run.
func measure(sp spec, seed uint64, budget time.Duration, trace bool) (*output, error) {
	n := uint64(len(refSeeds))
	h := hostBlock(sp, seed)
	hb, _ := json.Marshal(h)
	fmt.Println("host", string(hb))
	if sp.Workers > h.NProc {
		fmt.Fprintf(os.Stderr, "WARNING: %s runs %d simulation workers on %d CPUs: its times are not a %d-way scaling figure\n",
			sp.Name, sp.Workers, h.NProc, sp.Workers)
	}
	runDir := filepath.Join(".bench_build", "perfbench", sp.Name)
	if err := os.RemoveAll(runDir); err != nil {
		return nil, err
	}
	start := time.Now()
	var kids []child
	var longest time.Duration
	perSeed := 1 // sweeps per seed before rotating
	if trace {
		perSeed = 2
	}
	minKids := perSeed * len(refSeeds)
	for i := 0; ; i++ {
		el := time.Since(start)
		if i >= minKids && el+longest > budget {
			break
		}
		if i >= 1 && el+longest > childLimit {
			break
		}
		tr := trace && i%2 == 1
		inputSeed := refSeeds[(seed%n+uint64(i/perSeed))%n]
		c, err := spawn(sp, inputSeed, tr, false, filepath.Join(runDir, strconv.Itoa(i)))
		if err != nil {
			return nil, err
		}
		if d := time.Duration(c.WallS * float64(time.Second)); d > longest {
			longest = d
		}
		fmt.Printf("sweep %d seed=%d traced=%v sweep_s=%.3f setup_s=%.3f cpu_s=%.3f heap_retained_mb=%.1f sims=%d failed=%d warm=%d\n",
			i, inputSeed, tr, c.SweepS, c.SetupS, c.CPUS, c.Heap, c.Sims, len(c.Failures), c.Warm)
		for _, f := range slices.Concat(c.Failures, c.Errors) {
			fmt.Println("  FAILED", f)
		}
		kids = append(kids, c)
	}
	out := aggregate(sp, kids, trace)
	report(sp, kids)
	summary, _ := json.MarshalIndent(map[string]any{"host": h, "sweeps": kids, "result": out}, "", "  ")
	if err := os.WriteFile(filepath.Join(runDir, "summary.json"), summary, 0o644); err != nil {
		return out, err
	}
	return out, nil
}

// spawn runs one sweep in a fresh process, so every sweep starts with an
// empty prefill snapshot cache and an empty checkpoint directory.
func spawn(sp spec, inputSeed uint64, traced, record bool, dir string) (child, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return child{}, err
	}
	self, err := os.Executable()
	if err != nil {
		return child{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childLimit)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, "-child", "-workload", sp.Name,
		"-input-seed", strconv.FormatUint(inputSeed, 10), "-traced="+strconv.FormatBool(traced),
		"-record="+strconv.FormatBool(record), "-dir", dir)
	// The child dies with the parent, so an interrupted run leaves no sweep behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	t0 := time.Now()
	if err := cmd.Run(); err != nil {
		return child{}, fmt.Errorf("%s sweep: %w", sp.Name, err)
	}
	c := child{Seed: inputSeed}
	if err := json.Unmarshal(bytes.TrimSpace(stdout.Bytes()), &c.sweepResult); err != nil {
		return child{}, fmt.Errorf("%s sweep output: %w", sp.Name, err)
	}
	c.WallS = time.Since(t0).Seconds()
	c.CPUS = (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Seconds()
	if c.FirstRunNs > 0 {
		c.SetupS = float64(c.FirstRunNs-t0.UnixNano()) / 1e9
	}
	return c, nil
}

func runChild(name string, seed uint64, traced, record bool, dir string) error {
	sp, ok := specByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	o := sweepOpts{spec: sp, seed: seed, traced: traced, dir: dir}
	if !record {
		var ref reference
		if err := json.Unmarshal(referenceJSON, &ref); err != nil {
			return err
		}
		d, ok := ref[name][strconv.FormatUint(seed, 10)]
		if !ok {
			return fmt.Errorf("no reference digests for %s seed %d", name, seed)
		}
		o.ref = &d
	}
	res, err := runSweep(o)
	if err != nil {
		return err
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// aggregate reduces the sweeps of a run to one value per metric: the
// median over each reference seed's sweeps, averaged over the seeds, so
// inputs of different cost weigh the same in every run. Counts are summed
// over the seeds instead, so they stay exact: one sweep of each seed. The
// output's attempted/failed count simulations across all sweeps.
func aggregate(sp spec, kids []child, trace bool) *output {
	out := &output{Correct: len(kids) > 0, Metrics: map[string]metricValue{}}
	vals := map[string]map[uint64][]float64{} // metric -> seed -> samples
	add := func(name string, seed uint64, v float64) {
		if vals[name] == nil {
			vals[name] = map[uint64][]float64{}
		}
		vals[name][seed] = append(vals[name][seed], v)
	}
	for _, c := range kids {
		out.Attempted += c.Sims
		out.Failed += len(c.Failures)
		if c.Sims != sp.Sims || len(c.Failures) > 0 || len(c.Errors) > 0 {
			out.Correct = false
		}
		if c.Traced {
			add("traced_sweep_s", c.Seed, c.SweepS)
			for k, v := range c.PerLayer {
				add(k, c.Seed, v)
			}
			continue
		}
		add("sweep_s", c.Seed, c.SweepS)
		add("cpu_s", c.Seed, c.CPUS)
		add("setup_s", c.Seed, c.SetupS)
		add("heap_retained_mb", c.Seed, c.Heap)
	}
	value := func(name, unit string) float64 {
		sum := 0.0
		for _, xs := range vals[name] {
			sum += median(xs)
		}
		if unit == "count" {
			return sum
		}
		return ratio(sum, float64(len(vals[name])))
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	for _, d := range defs {
		out.Metrics[d.Name] = metricValue{value(d.Name, d.Unit), d.Unit}
	}
	if trace {
		out.Metrics["trace.overhead_s"] = metricValue{value("traced_sweep_s", "s") - value("sweep_s", "s"), "s"}
	}
	return out
}

// report prints the layer shares of the median traced sweep and the
// model's gmeans beside the paper's.
func report(sp spec, kids []child) {
	var traced []child
	for _, c := range kids {
		if c.Traced {
			traced = append(traced, c)
		}
	}
	if len(traced) > 0 {
		sort.Slice(traced, func(i, j int) bool { return traced[i].SweepS < traced[j].SweepS })
		c := traced[len(traced)/2]
		fmt.Printf("layer self time, traced sweep of %.3f s; shares of %.3f s summed per-simulation host time:\n", c.SweepS, c.SimHostS)
		names := make([]string, 0, len(c.Layers))
		for n := range c.Layers {
			names = append(names, n)
		}
		sort.Slice(names, func(i, j int) bool { return c.Layers[names[i]] > c.Layers[names[j]] })
		for _, n := range names {
			if n == "uncovered" {
				continue
			}
			fmt.Printf("  %-16s %9.3f s  %6.1f%%\n", n, c.Layers[n], 100*ratio(c.Layers[n], c.SimHostS))
		}
		fmt.Printf("  %-16s %9.3f s  (sweep time outside any simulation: runner, table render)\n", "uncovered", c.Layers["uncovered"])
		capacity := float64(sp.Workers) * c.SweepS
		fmt.Printf("accounting: %.3f s in layers + %.3f s uncovered of %d worker(s) x %.3f s sweep_s = %.3f s; remainder %.3f s is idle worker time\n",
			c.SimHostS, c.Layers["uncovered"], sp.Workers, c.SweepS, capacity, capacity-c.SimHostS-c.Layers["uncovered"])
		dom := 0.0
		for _, l := range sp.Dominant {
			dom += c.Layers[l]
		}
		share := ratio(dom, c.SimHostS)
		verdict := "ok"
		if share < sp.MinShare {
			verdict = "FLAG: the workload no longer stresses the layer it was chosen for"
		}
		fmt.Printf("dominant %s share %.3f (want >= %.2f): %s\n", strings.Join(sp.Dominant, "+"), share, sp.MinShare, verdict)
	}
	fmt.Println("model gmeans beside the paper's (unvalidated synthetic-trace model; not a performance metric, not gated):")
	paper := paperGmeans[sp.Exp]
	labels := make([]string, 0, len(paper))
	for l := range paper {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	seen := map[uint64]bool{}
	for _, c := range kids {
		if seen[c.Seed] {
			continue
		}
		seen[c.Seed] = true
		for _, l := range labels {
			if got, ok := c.Gmeans[l]; ok {
				fmt.Printf("  seed %d %s %s: model %.3f, paper %.3f, relative error %+.1f%%\n",
					c.Seed, sp.Exp, l, got, paper[l], 100*(got-paper[l])/paper[l])
			}
		}
	}
}

// regenerate rewrites the reference digests: one recorded sweep per
// workload and reference seed.
func regenerate(path string) error {
	dir := filepath.Join(".bench_build", "perfbench", "regen")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	ref := reference{}
	for _, sp := range specs {
		ref[sp.Name] = map[string]refDigests{}
		for _, seed := range refSeeds {
			c, err := spawn(sp, seed, false, true, filepath.Join(dir, sp.Name, strconv.FormatUint(seed, 10)))
			if err != nil {
				return err
			}
			if len(c.Failures) > 0 || len(c.Errors) > 0 || c.Sims != sp.Sims {
				return fmt.Errorf("%s seed %d: %d of %d simulations ran, failures %v %v", sp.Name, seed, c.Sims, sp.Sims, c.Failures, c.Errors)
			}
			ref[sp.Name][strconv.FormatUint(seed, 10)] = refDigests{Table: c.TableDigest, Sims: c.Digests}
			fmt.Printf("%s seed %d: %d digests\n%s", sp.Name, seed, len(c.Digests), c.Table)
		}
	}
	b, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// host is the host block every run prints: what the numbers were measured on.
type host struct {
	NumCPU       int      `json:"num_cpu"`
	NProc        int      `json:"nproc"`
	GOMAXPROCS   int      `json:"gomaxprocs"`
	GoVersion    string   `json:"go_version"`
	Workload     string   `json:"workload"`
	Workers      int      `json:"workers"`
	InstrPerCore uint64   `json:"instr_per_core"`
	Warmup       uint64   `json:"warmup_cycles"`
	Seed         uint64   `json:"seed"`
	SimSeeds     []uint64 `json:"sim_seeds"`
	Revision     string   `json:"git_revision"`
}

func hostBlock(sp spec, seed uint64) host {
	return host{
		NumCPU: runtime.NumCPU(), NProc: nproc(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Workload: sp.Name, Workers: sp.Workers,
		InstrPerCore: sp.Instr, Warmup: sp.Warmup, Seed: seed, SimSeeds: refSeeds, Revision: revision(),
	}
}

// nproc counts the CPUs this process may run on, as nproc(1) does.
func nproc() int {
	var mask [16]uint64
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask[0])))
	if e != 0 {
		return runtime.NumCPU()
	}
	n := 0
	for _, w := range mask {
		n += bits.OnesCount64(w)
	}
	return n
}

// revision is the git revision the binary was built from, when the build
// saw one.
func revision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown (built outside a git checkout)"
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}
