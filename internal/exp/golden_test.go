package exp

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current model")

// TestGoldenTables freezes the model's output: every registered experiment,
// rendered at a small scale, must match its committed table byte for byte.
// A change that moves any paper number fails here instead of passing
// quietly; `go test ./internal/exp -run TestGoldenTables -update` is the
// only way to rewrite the goldens, and the diff must be justified.
func TestGoldenTables(t *testing.T) {
	r := NewRunner(Options{InstrPerCore: 2_000, Workloads: []string{"mcf_m", "mix_1"}})
	dir := filepath.Join("testdata", "golden")
	if *update {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range All() {
		tb, err := e.Run(r)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		var got bytes.Buffer
		fmt.Fprintf(&got, "## %s\n\nPaper: %s\n\n%s\n", e.Title, e.Paper, tb.String())
		path := filepath.Join(dir, e.ID+".txt")
		if *update {
			if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (run with -update to create it)", e.ID, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: table differs from %s\n--- got ---\n%s--- want ---\n%s", e.ID, path, got.Bytes(), want)
		}
	}
}
