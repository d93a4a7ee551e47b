package mem

import (
	"runtime"
	"testing"

	"fpb/internal/sim"
	"fpb/internal/testutil"
)

// TestCancelRequeueZeroAlloc: cancelling an in-flight write and putting
// it back at the head of the write queue must not allocate once the
// queue has reached its size, and must keep the rest of the queue in
// order behind it.
func TestCancelRequeueZeroAlloc(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	_, c, cfg := newCtl(t, sim.SchemeGCPIPMMR, func(cfg *sim.Config) {
		cfg.MultiResetSplit = 3
		cfg.WriteCancellation = true
	})
	// Three writes to bank 0: the first issues at once, the other two
	// wait behind it for the bank.
	stride := uint64(cfg.Banks * cfg.L3LineB)
	for i := uint64(0); i < 3; i++ {
		if !c.TryEnqueueWrite(i*stride, mkLine(cfg, 40+int(i)*8)) {
			t.Fatalf("write %d refused", i)
		}
	}
	op := c.banks[0].wr
	if op == nil {
		t.Fatal("first write did not issue")
	}
	waiting := append([]*WriteRequest(nil), c.wrq...)
	if len(waiting) != 2 {
		t.Fatalf("write queue holds %d, want 2 waiting writes", len(waiting))
	}
	// reissue re-admits the requeued write onto the same op by hand, as
	// issueWrites would but without startWrite's fresh op and timing
	// event. Admission allocates the ticket, so only the cancellation
	// and requeue are counted below.
	reissue := func() {
		req := c.wrq[0]
		tk, ok := c.sched.TryStart(c.profileFor(req), &req.plans)
		if !ok {
			t.Fatal("cancelled write not re-admitted on a free budget")
		}
		c.wrq = append(c.wrq[:0], c.wrq[1:]...)
		op.ticket, op.prof = tk, req.prof
		c.banks[0].busy, c.banks[0].wr = true, op
	}
	c.cancelWrite(op) // also cancels the booked phase event
	reissue()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	var mallocs uint64
	for i := 0; i < 100; i++ {
		runtime.ReadMemStats(&before)
		c.cancelWrite(op)
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		if c.wrq[0] != op.req || c.wrq[1] != waiting[0] || c.wrq[2] != waiting[1] {
			t.Fatal("cancelled write not requeued at the head, in order")
		}
		reissue()
	}
	if mallocs != 0 {
		t.Fatalf("100 cancel-and-requeues allocated %d objects, want 0", mallocs)
	}
}
