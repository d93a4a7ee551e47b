// Command fpbctl is the fleet control CLI: it submits parameter sweeps to a
// cluster of fpbd daemons, polls their progress, cancels them, and inspects
// ring membership.
//
// Usage:
//
//	fpbctl -addr host:8080 sweep -schemes fpb,ideal -workloads mcf_m,xal_m -wait
//	fpbctl -addr host:8080 status s000001
//	fpbctl -addr host:8080 cancel s000001
//	fpbctl -addr host:8080,host:8081 members
//	fpbctl -addr host:8080 sweeps
//
// -addr may list several nodes; fpbctl tries them in order until one
// answers, so a down coordinator does not strand the operator. Any node of
// the fleet accepts any command — sweeps are coordinated by whichever node
// receives them, and results land in the ring owners' stores either way.
// -json switches every command to raw JSON output for scripting.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"fpb/internal/cluster"
	"fpb/internal/serve/client"
)

// tryNodes runs f against each node until one succeeds; the last error
// surfaces when all fail.
func tryNodes(addrs []string, f func(base string) error) error {
	var lastErr error
	for _, a := range addrs {
		if err := f(client.Normalize(a)); err != nil {
			lastErr = err
			continue
		}
		return nil
	}
	return lastErr
}

func getJSON(hc *http.Client, url string, v any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return httpError(resp.StatusCode, body)
	}
	return json.Unmarshal(body, v)
}

func postJSON(hc *http.Client, url string, req, v any) error {
	var body io.Reader
	if req != nil {
		b, err := json.Marshal(req)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	resp, err := hc.Post(url, "application/json", body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return httpError(resp.StatusCode, raw)
	}
	return json.Unmarshal(raw, v)
}

func httpError(code int, body []byte) error {
	var ae struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &ae) == nil && ae.Error != "" {
		return fmt.Errorf("HTTP %d: %s", code, ae.Error)
	}
	return fmt.Errorf("HTTP %d: %s", code, strings.TrimSpace(string(body)))
}

func printStatus(w io.Writer, st cluster.SweepStatus, verbose bool) {
	fmt.Fprintf(w, "sweep %s: %s  %d/%d done", st.ID, st.State, st.Completed, st.Total)
	if st.Failed > 0 {
		fmt.Fprintf(w, ", %d failed", st.Failed)
	}
	if st.Cancelled > 0 {
		fmt.Fprintf(w, ", %d cancelled", st.Cancelled)
	}
	if st.Replicated > 0 {
		fmt.Fprintf(w, ", %d replicas", st.Replicated)
	}
	fmt.Fprintf(w, "  (%.0f ms)\n", st.ElapsedMs)
	if len(st.PerNode) > 0 {
		nodes := make([]string, 0, len(st.PerNode))
		for n := range st.PerNode {
			nodes = append(nodes, n)
		}
		sort.Strings(nodes)
		for _, n := range nodes {
			fmt.Fprintf(w, "  %-28s %d units\n", n, st.PerNode[n])
		}
	}
	if st.Error != "" {
		fmt.Fprintf(w, "  error: %s\n", st.Error)
	}
	if verbose {
		for _, j := range st.Jobs {
			label := j.Scheme + "/" + j.Workload
			if j.Mapping != "" {
				label = j.Scheme + "/" + j.Mapping + "/" + j.Workload
			}
			line := fmt.Sprintf("  %-28s %-9s %s", label, j.State, j.Key[:12])
			if j.Node != "" {
				line += "  on " + j.Node
			}
			if j.Cached {
				line += "  (cached)"
			}
			if j.Attempts > 1 {
				line += fmt.Sprintf("  (%d attempts)", j.Attempts)
			}
			if j.Error != "" {
				line += "  err: " + j.Error
			}
			fmt.Fprintln(w, line)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "fpbctl: "+format+"\n", args...)
	os.Exit(1)
}

func emitJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func main() {
	var (
		addr    = flag.String("addr", "localhost:8080", "fleet node address(es), comma-separated; tried in order")
		timeout = flag.Duration("timeout", 0, "overall HTTP timeout (0 = none; sweeps with -wait can run long)")
		asJSON  = flag.Bool("json", false, "print raw JSON instead of text")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: fpbctl [flags] <sweep|status|cancel|sweeps|members> [args]\n\nflags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	addrs := strings.Split(*addr, ",")
	hc := &http.Client{Timeout: *timeout}
	cmd, args := flag.Arg(0), flag.Args()[1:]

	switch cmd {
	case "sweep":
		fs := flag.NewFlagSet("sweep", flag.ExitOnError)
		var (
			schemes   = fs.String("schemes", "", "comma-separated schemes (required)")
			workloads = fs.String("workloads", "", "comma-separated workloads (required)")
			mappings  = fs.String("mappings", "", "comma-separated mappings (optional)")
			seed      = fs.Uint64("seed", 0, "RNG seed override")
			instr     = fs.Uint64("instr", 0, "instructions per core override")
			wait      = fs.Bool("wait", false, "block until the sweep completes")
			results   = fs.Bool("results", false, "carry full results in the status (small sweeps)")
			poll      = fs.Duration("poll", time.Second, "poll interval with -wait")
		)
		fs.Parse(args)
		if *schemes == "" || *workloads == "" {
			fatalf("sweep requires -schemes and -workloads")
		}
		spec := cluster.SweepSpec{
			Schemes:        strings.Split(*schemes, ","),
			Workloads:      strings.Split(*workloads, ","),
			Seed:           *seed,
			InstrPerCore:   *instr,
			IncludeResults: *results,
		}
		if *mappings != "" {
			spec.Mappings = strings.Split(*mappings, ",")
		}
		var st cluster.SweepStatus
		var submittedTo string
		err := tryNodes(addrs, func(base string) error {
			submittedTo = base
			return postJSON(hc, base+"/v1/sweeps", spec, &st)
		})
		if err != nil {
			fatalf("submit: %v", err)
		}
		if !*wait {
			if *asJSON {
				emitJSON(st)
			} else {
				printStatus(os.Stdout, st, false)
				fmt.Printf("poll with: fpbctl -addr %s status %s\n", strings.TrimPrefix(submittedTo, "http://"), st.ID)
			}
			return
		}
		// Poll the node that accepted the sweep (its coordinator owns the
		// run) until it settles.
		for st.State == cluster.SweepRunning {
			time.Sleep(*poll)
			if err := getJSON(hc, submittedTo+"/v1/sweeps/"+st.ID, &st); err != nil {
				fatalf("poll: %v", err)
			}
		}
		if *asJSON {
			emitJSON(st)
		} else {
			printStatus(os.Stdout, st, true)
		}
		if st.State != cluster.SweepDone {
			os.Exit(1)
		}

	case "status":
		if len(args) != 1 {
			fatalf("usage: fpbctl status <sweep-id>")
		}
		var st cluster.SweepStatus
		if err := tryNodes(addrs, func(base string) error {
			return getJSON(hc, base+"/v1/sweeps/"+args[0], &st)
		}); err != nil {
			fatalf("status: %v", err)
		}
		if *asJSON {
			emitJSON(st)
		} else {
			printStatus(os.Stdout, st, true)
		}

	case "cancel":
		if len(args) != 1 {
			fatalf("usage: fpbctl cancel <sweep-id>")
		}
		var st cluster.SweepStatus
		if err := tryNodes(addrs, func(base string) error {
			return postJSON(hc, base+"/v1/sweeps/"+args[0]+"/cancel", nil, &st)
		}); err != nil {
			fatalf("cancel: %v", err)
		}
		if *asJSON {
			emitJSON(st)
		} else {
			printStatus(os.Stdout, st, false)
		}

	case "sweeps":
		var list []cluster.SweepStatus
		if err := tryNodes(addrs, func(base string) error {
			return getJSON(hc, base+"/v1/sweeps", &list)
		}); err != nil {
			fatalf("sweeps: %v", err)
		}
		if *asJSON {
			emitJSON(list)
			return
		}
		if len(list) == 0 {
			fmt.Println("no sweeps")
			return
		}
		for _, st := range list {
			printStatus(os.Stdout, st, false)
		}

	case "members":
		var ms cluster.MembersStatus
		if err := tryNodes(addrs, func(base string) error {
			return getJSON(hc, base+"/v1/cluster/members", &ms)
		}); err != nil {
			fatalf("members: %v", err)
		}
		if *asJSON {
			emitJSON(ms)
			return
		}
		down := make(map[string]bool, len(ms.Down))
		for _, d := range ms.Down {
			down[d] = true
		}
		fmt.Printf("fleet: %d members, %d replicas, %d vnodes (answered by %s)\n",
			len(ms.Members), ms.Replicas, ms.VNodes, ms.Self)
		for _, m := range ms.Members {
			state := "alive"
			if down[m] {
				state = "DOWN"
			}
			fmt.Printf("  %-28s %-6s %5.1f%% of keyspace\n", m, state, 100*ms.Shares[m])
		}

	default:
		fatalf("unknown command %q (want sweep, status, cancel, sweeps or members)", cmd)
	}
}
