//go:build fpbdebug

package system

import (
	"fmt"

	"fpb/internal/cache"
)

// snapshotGuard (fpbdebug builds) enforces the snapshot cache's invariant:
// every System's hierarchy reads its untouched sets through to the cached
// snapshot, so a single write into a snapshot would silently change every
// later run built from it. The guard checksums the snapshot's three
// metadata arrays when it is cached and re-checks them on every hit.
type snapshotGuard struct {
	sums [3]uint64
}

func checksums(h *cache.Hierarchy) [3]uint64 {
	return [3]uint64{h.L1().Checksum(), h.L2().Checksum(), h.L3().Checksum()}
}

func (g *snapshotGuard) record(h *cache.Hierarchy) { g.sums = checksums(h) }

func (g *snapshotGuard) check(k prefillKey, h *cache.Hierarchy) {
	if checksums(h) != g.sums {
		panic(fmt.Sprintf("system: prefill snapshot %+v changed after it was cached", k))
	}
}
