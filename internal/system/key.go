package system

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"

	"fpb/internal/sim"
)

// keyFormatVersion is bumped whenever the meaning of an existing config
// field changes (added or removed fields change the canonical encoding by
// themselves). It invalidates every previously stored result key.
const keyFormatVersion = 1

// canonicalJob is the serialized identity of one simulation. sim.Config is
// a flat struct of scalars, so encoding/json renders it byte-deterministically
// in declaration order.
type canonicalJob struct {
	Version  int        `json:"v"`
	Workload string     `json:"workload"`
	Config   sim.Config `json:"config"`
}

// Canonical returns the canonical serialization of one (config, workload)
// simulation: the byte string two jobs share exactly when they are the same
// simulation. It is the preimage of Key.
func Canonical(cfg sim.Config, workload string) []byte {
	b, err := json.Marshal(canonicalJob{Version: keyFormatVersion, Workload: workload, Config: cfg})
	if err != nil {
		// sim.Config holds only scalars; Marshal cannot fail.
		panic("system: canonical encoding: " + err.Error())
	}
	return b
}

// Key returns the content address of one (config, workload) simulation: the
// hex SHA-256 of its canonical serialization. Every deterministic result
// cache in the tree (exp.Runner, the fpbd result store) keys on it.
func Key(cfg sim.Config, workload string) string {
	sum := sha256.Sum256(Canonical(cfg, workload))
	return hex.EncodeToString(sum[:])
}

// CheckpointKey returns the content address of the warmup prefix of one
// (config, workload) run: the key under which its barrier checkpoint image
// is stored and shared. Two grid points share a key — and therefore one
// warmup simulation — exactly when their warmup phases are byte-identical:
// the key hashes the *warmup* config (measurement-only policy fields pinned
// by Config.WarmupConfig), with InstrPerCore zeroed on top, since the
// instruction budget only governs how far the measurement phase runs past
// the barrier.
func CheckpointKey(cfg sim.Config, workload string) string {
	w := cfg.WarmupConfig()
	w.InstrPerCore = 0
	sum := sha256.Sum256(Canonical(w, workload))
	return hex.EncodeToString(sum[:])
}
