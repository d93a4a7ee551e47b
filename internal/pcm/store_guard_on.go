//go:build fpbdebug

package pcm

import "fmt"

// storeGuard (fpbdebug builds) catches the Get-view aliasing footgun: Get
// returns a view into the store's slab memory, so a caller scribbling on it
// would silently corrupt stored content — with the line pool this shows up
// far from the bug, as wrong diff profiles on a later write. The guard
// fingerprints every view Get hands out and re-checks it the next time the
// same line is touched, panicking at the first access that observes an
// external mutation.
type storeGuard struct {
	sums map[uint64]uint64
}

// fingerprint is FNV-1a over the line content.
func fingerprint(line []byte) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, b := range line {
		h = (h ^ uint64(b)) * 0x100000001b3
	}
	return h
}

func (g *storeGuard) check(lineAddr uint64, line []byte) {
	if sum, ok := g.sums[lineAddr]; ok && sum != fingerprint(line) {
		panic(fmt.Sprintf(
			"pcm: line %#x mutated through a Store.Get view (use Put/Update to write)", lineAddr))
	}
}

func (g *storeGuard) onGet(lineAddr uint64, line []byte) {
	g.check(lineAddr, line)
	if g.sums == nil {
		g.sums = make(map[uint64]uint64)
	}
	g.sums[lineAddr] = fingerprint(line)
}

func (g *storeGuard) onPut(lineAddr uint64, line []byte) {
	g.check(lineAddr, line)
	delete(g.sums, lineAddr) // Put legitimately rewrites the content
}
