package system

import (
	"testing"

	"fpb/internal/sim"
)

func TestKeyIsStableAndDiscriminating(t *testing.T) {
	cfg := sim.DefaultConfig()
	k1 := Key(cfg, "mcf_m")
	k2 := Key(cfg, "mcf_m")
	if k1 != k2 {
		t.Fatalf("same job hashed differently: %s vs %s", k1, k2)
	}
	if len(k1) != 64 {
		t.Fatalf("key %q is not a hex sha256", k1)
	}
	if kw := Key(cfg, "lbm_m"); kw == k1 {
		t.Error("different workloads share a key")
	}
	mod := cfg
	mod.Seed++
	if km := Key(mod, "mcf_m"); km == k1 {
		t.Error("different seeds share a key")
	}
	mod = cfg
	mod.Scheme = sim.SchemeIdeal
	if km := Key(mod, "mcf_m"); km == k1 {
		t.Error("different schemes share a key")
	}
}

func TestCanonicalRoundTripsConfig(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.HalfStripe = true
	cfg.GCPEff = 0.55
	b1 := Canonical(cfg, "mix_1")
	b2 := Canonical(cfg, "mix_1")
	if string(b1) != string(b2) {
		t.Fatal("canonical serialization is not byte-deterministic")
	}
}

// TestKeyFormatPinned freezes the content-key format. Result stores and
// checkpoint stores are addressed by these keys, so any drift — a config
// field added, removed or renamed, or a change to the canonical encoding —
// must be deliberate: update the constants here and say in the change log
// that every stored entry becomes a miss (or bump keyFormatVersion when an
// existing field changes meaning).
func TestKeyFormatPinned(t *testing.T) {
	if got, want := Key(sim.DefaultConfig(), "mcf_m"),
		"b6488e52ba86484d457a31fc545c69a75c3fd9a3eba77b3a7a797cd419696724"; got != want {
		t.Errorf("Key(DefaultConfig, mcf_m) = %s, want %s", got, want)
	}
	w := sim.DefaultConfig()
	w.WarmupCycles = 4_000_000
	if got, want := CheckpointKey(w, "mcf_m"),
		"45cd1caff014bb5fffe741c348fd641bb023b392d982576cc6b64b3752e3cb19"; got != want {
		t.Errorf("CheckpointKey(warmup 4M, mcf_m) = %s, want %s", got, want)
	}
}
