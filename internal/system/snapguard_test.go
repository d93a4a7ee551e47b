//go:build fpbdebug

package system

import (
	"strings"
	"testing"

	"fpb/internal/sim"
	"fpb/internal/workload"
)

// TestPrefillSnapshotGuardCatchesWrite: every System reads its untouched
// cache sets through to the cached prefill snapshot, so a write into a
// snapshot must make the next hit on it panic, naming the snapshot.
func TestPrefillSnapshotGuardCatchesWrite(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.L3SizeMB = 1
	cfg.Seed = 0x5EED_BAD // a prefill key no other test builds
	wl, err := workload.ByName("mcf_m", cfg.Cores)
	if err != nil {
		t.Fatal(err)
	}
	gen, prof := coreGenerators(&cfg, wl)[0], wl.Cores[0]
	defer dropPrefillSnapshots() // the snapshot below is corrupted on purpose
	owned, snap := prefilledHierarchy(&cfg, gen, prof)
	owned.Release()
	again, _ := prefilledHierarchy(&cfg, gen, prof) // an intact snapshot hits cleanly
	again.Release()
	snap.L3().Access(0x40, true)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "prefill snapshot") || !strings.Contains(msg, "changed") {
			t.Errorf("hit on a written snapshot: recovered %q, want a panic naming the snapshot", msg)
		}
	}()
	prefilledHierarchy(&cfg, gen, prof)
}
