package mem

import (
	"fpb/internal/core"
	"fpb/internal/pcm"
	"fpb/internal/sim"
)

// ReadRequest is a PCM line read. Demand reads carry a completion callback
// that unblocks the waiting core; fill reads (read-for-ownership of
// writeback-allocated L3 lines) have no waiter and only consume bandwidth.
type ReadRequest struct {
	Addr     uint64 // line-aligned
	Demand   bool
	Done     func() // invoked when data reaches the requester; may be nil
	enqueued sim.Cycle
	bank     int // AddressMap.Bank(Addr), looked up once at enqueue
}

// WriteRequest is a dirty line writeback to PCM, carrying the new content.
type WriteRequest struct {
	Addr     uint64 // line-aligned
	Data     []byte
	enqueued sim.Cycle
	bank     int // AddressMap.Bank(Addr), looked up once at enqueue
	// cancelled counts how many times write cancellation restarted this
	// request (telemetry; the paper's WC re-executes writes in full).
	cancelled int

	// prof caches the request's write profile across issue attempts. A
	// profile is a pure function of (line address, stored content, new
	// data, rotation offset), so it is validated by the stored-content
	// version and offset it was built against: while both are unchanged a
	// rebuild would produce an identical profile, and the cache serves it
	// without re-diffing the line.
	prof    *pcm.WriteProfile
	profVer uint64 // lineWrites[Addr] the profile was built against
	profRot int    // rotation offset the profile was built against
	// plans memoizes the candidate power plans built from prof, so a
	// denied admission is retried without replanning. The set lives and
	// dies with prof: it is dropped whenever prof is rebuilt or released.
	plans core.PlanSet
}
