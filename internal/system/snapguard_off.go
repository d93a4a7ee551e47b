//go:build !fpbdebug

package system

import "fpb/internal/cache"

// snapshotGuard is compiled away in normal builds; the fpbdebug tag swaps
// in one that panics when a cached prefill snapshot has changed. See
// snapguard_on.go.
type snapshotGuard struct{}

func (snapshotGuard) record(*cache.Hierarchy)            {}
func (snapshotGuard) check(prefillKey, *cache.Hierarchy) {}
