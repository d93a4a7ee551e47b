package system

import (
	"runtime"
	"testing"
	"time"

	"fpb/internal/pcm"
	"fpb/internal/sim"
	"fpb/internal/workload"
)

// TestPrefillSnapshotDoesNotPinSystem: the process-wide prefill snapshot
// cache outlives every System, so nothing it stores may point back into the
// System that built it. A dropped System must be collectable.
func TestPrefillSnapshotDoesNotPinSystem(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Cores = 2
	cfg.L3SizeMB = 1
	cfg.InstrPerCore = 1000
	cfg.Seed = 0x5EED_C0DE // a prefill key no other test builds first
	wl, err := workload.ByName("mcf_m", cfg.Cores)
	if err != nil {
		t.Fatal(err)
	}
	collected := make(chan struct{})
	func() {
		sys, err := Build(cfg, wl)
		if err != nil {
			t.Fatal(err)
		}
		sys.Run()
		sys.Release()
		// A finalizer on the System itself would never run: its metric
		// closures point back at it, and the runtime does not finalize
		// objects that reach themselves. The PCM store is a leaf the
		// System exclusively owns, so it is collectable exactly when the
		// System is.
		runtime.SetFinalizer(sys.MC.Store(), func(*pcm.Store) { close(collected) })
	}()
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("a dropped System was never collected: something process-wide still references it")
}
