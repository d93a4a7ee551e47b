package mem

import (
	"reflect"
	"testing"

	"fpb/internal/core"
	"fpb/internal/pcm"
	"fpb/internal/power"
	"fpb/internal/sim"
)

// freshPlan plans the profile from scratch, split as plan was.
func freshPlan(cfg *sim.Config, prof *pcm.WriteProfile, plan *core.WritePlan) *core.WritePlan {
	if plan.MRSplit > 1 {
		return core.NewPlanner(cfg).PlanMR(prof, plan.MRSplit)
	}
	return core.NewPlanner(cfg).Plan(prof)
}

// holdDIMM takes every DIMM token, so no write can be admitted until the
// returned grant is released.
func holdDIMM(t *testing.T, c *Controller) *power.Grant {
	t.Helper()
	g, ok := c.sched.Manager().TryAcquire(power.Demand{DIMM: c.cfg.DIMMTokens})
	if !ok {
		t.Fatal("DIMM budget not free")
	}
	return g
}

// TestPlanMemoFollowsProfile: a denied write keeps its plans while its
// profile stays valid, and drops them — to be rebuilt from the new
// profile — when the line's content version or rotation offset changes
// between attempts.
func TestPlanMemoFollowsProfile(t *testing.T) {
	_, c, cfg := newCtl(t, sim.SchemeGCPIPMMR, func(cfg *sim.Config) {
		cfg.MultiResetSplit = 3
		cfg.PWL = true
		cfg.PWLShiftWrites = 1
	})
	hold := holdDIMM(t, c)
	req := &WriteRequest{Addr: 0, Data: mkLine(cfg, 64)}
	attempt := func() *pcm.WriteProfile {
		t.Helper()
		prof := c.profileFor(req)
		if _, ok := c.sched.TryStart(prof, &req.plans); ok {
			t.Fatal("admitted with every DIMM token held")
		}
		return prof
	}
	const slots = 3 // unsplit, MR2, MR3
	prof := attempt()
	if n := c.sched.OutstandingPlans(); n != slots {
		t.Fatalf("%d plans memoized, want %d", n, slots)
	}
	if attempt() != prof || c.sched.OutstandingPlans() != slots {
		t.Fatal("unchanged line: profile or plans rebuilt")
	}

	c.lineWrites[req.Addr]++ // the line's stored content moved on
	c.profileFor(req)
	if req.plans != (core.PlanSet{}) || c.sched.OutstandingPlans() != 0 {
		t.Fatal("content version changed: memoized plans survived")
	}
	attempt()
	if n := c.sched.OutstandingPlans(); n != slots {
		t.Fatalf("%d plans rebuilt after the version change, want %d", n, slots)
	}

	rot := c.rot.Offset(req.Addr)
	for i := 0; c.rot.Offset(req.Addr) == rot; i++ {
		if i == 100 {
			t.Fatal("rotation offset never changed")
		}
		c.rot.RecordWrite(req.Addr)
	}
	c.profileFor(req)
	if req.plans != (core.PlanSet{}) || c.sched.OutstandingPlans() != 0 {
		t.Fatal("rotation offset changed: memoized plans survived")
	}
	prof = attempt()

	c.sched.Manager().Release(hold)
	tk, ok := c.sched.TryStart(prof, &req.plans)
	if !ok {
		t.Fatal("not admitted on an idle manager")
	}
	if !reflect.DeepEqual(*tk.Plan, *freshPlan(cfg, prof, tk.Plan)) {
		t.Error("admitted plan differs from a fresh plan of the rebuilt profile")
	}
	if req.plans != (core.PlanSet{}) || c.sched.OutstandingPlans() != 1 {
		t.Errorf("after admission: set empty %v, %d outstanding, want true and 1",
			req.plans == (core.PlanSet{}), c.sched.OutstandingPlans())
	}
}

// TestCancelledWriteReplansFresh: a write cancelled for a read and
// re-issued is admitted with a plan equal, phase by phase, to a fresh plan
// of its profile, and the drained controller holds no plan.
func TestCancelledWriteReplansFresh(t *testing.T) {
	eng, c, cfg := newCtl(t, sim.SchemeGCPIPMMR, func(cfg *sim.Config) {
		cfg.MultiResetSplit = 3
		cfg.WriteCancellation = true
	})
	c.TryEnqueueWrite(0, mkLine(cfg, 250))
	eng.RunUntil(eng.Now() + 2000)
	c.TryEnqueueRead(0, nil)
	bank := c.amap.Bank(0)
	first := c.banks[bank].wr
	reissued := false
	for eng.Step() {
		op := c.banks[bank].wr
		if op == nil || op == first || reissued {
			continue
		}
		reissued = true
		if !reflect.DeepEqual(*op.ticket.Plan, *freshPlan(cfg, op.prof, op.ticket.Plan)) {
			t.Error("re-issued write's plan differs from a fresh plan")
		}
	}
	_, _, _, writes, cancels, _ := c.Counts()
	if cancels == 0 || !reissued || writes != 1 {
		t.Fatalf("cancels %d, re-issued %v, writes %d: want a cancelled write re-executed once",
			cancels, reissued, writes)
	}
	if !c.Quiesced() || c.sched.OutstandingPlans() != 0 {
		t.Errorf("drained controller: quiesced %v, %d plans outstanding",
			c.Quiesced(), c.sched.OutstandingPlans())
	}
}

// TestDrainedControllerReturnsEveryPlan runs contended FPB writes with
// cancellations and pauses to completion: every plan a queued write
// memoized or a ticket held must be back in the pool.
func TestDrainedControllerReturnsEveryPlan(t *testing.T) {
	eng, c, cfg := newCtl(t, sim.SchemeGCPIPMMR, func(cfg *sim.Config) {
		cfg.MultiResetSplit = 3
		cfg.DIMMTokens = 300
		cfg.WriteQueueEntries = 16
		cfg.WriteCancellation = true
		cfg.WritePausing = true
	})
	for i := 0; i < 12; i++ {
		c.TryEnqueueWrite(uint64(i*cfg.L3LineB), mkLine(cfg, 40+i*16))
	}
	for i := 0; i < 8; i++ {
		eng.RunUntil(eng.Now() + 1500)
		c.TryEnqueueRead(uint64(i*cfg.L3LineB), nil)
	}
	eng.Run(0)
	if _, _, _, writes, _, _ := c.Counts(); writes != 12 {
		t.Fatalf("writes done = %d, want 12", writes)
	}
	if _, _, _, _, _, fails := c.sched.Stats(); fails == 0 {
		t.Error("no admission was denied: the test did not contend")
	}
	if n := c.sched.OutstandingPlans(); n != 0 || !c.Quiesced() {
		t.Errorf("drained controller: %d plans outstanding, quiesced %v", n, c.Quiesced())
	}
}

// TestRebindPanicsWithQueuedWrite: the scheme switch must not outlive a
// write whose plans were memoized under the old scheme.
func TestRebindPanicsWithQueuedWrite(t *testing.T) {
	_, c, cfg := newCtl(t, sim.SchemeGCPIPMMR, func(cfg *sim.Config) { cfg.MultiResetSplit = 3 })
	holdDIMM(t, c)
	c.TryEnqueueWrite(0, mkLine(cfg, 64))
	if _, _, wrq := c.QueueDepths(); wrq != 1 || c.sched.OutstandingPlans() == 0 {
		t.Fatalf("write queue %d, %d plans memoized: want one denied, memoized write",
			wrq, c.sched.OutstandingPlans())
	}
	defer func() {
		if recover() == nil {
			t.Error("Rebind with a queued write did not panic")
		}
	}()
	c.Rebind()
}
