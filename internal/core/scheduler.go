package core

import (
	"fpb/internal/obs"
	"fpb/internal/pcm"
	"fpb/internal/power"
	"fpb/internal/sim"
)

// Ticket is the live state of an admitted write: which phase of its plan it
// is in and what tokens it currently holds.
type Ticket struct {
	Profile *pcm.WriteProfile
	Plan    *WritePlan

	phase   int
	grant   *power.Grant
	paused  bool
	waiting bool
	gcpUsed float64
}

// PhaseIndex reports the current phase (0-based).
func (t *Ticket) PhaseIndex() int { return t.phase }

// PhaseDuration reports how long the current phase lasts.
func (t *Ticket) PhaseDuration() sim.Cycle { return t.Plan.Phases[t.phase].Duration }

// InReset reports whether the current phase is a RESET (sub-)iteration.
func (t *Ticket) InReset() bool { return t.Plan.Phases[t.phase].Reset }

// Progress reports the fraction of phases completed, in [0, 1).
func (t *Ticket) Progress() float64 {
	return float64(t.phase) / float64(len(t.Plan.Phases))
}

// Waiting reports whether the write is stalled at a phase boundary for
// tokens.
func (t *Ticket) Waiting() bool { return t.waiting }

// Paused reports whether the write is paused (write pausing).
func (t *Ticket) Paused() bool { return t.paused }

// GCPUsed reports accumulated GCP output tokens across the write's phases.
func (t *Ticket) GCPUsed() float64 { return t.gcpUsed }

// AdvanceResult tells the controller what happened at a phase boundary.
type AdvanceResult int

const (
	// AdvanceDone: the write completed; all tokens are released.
	AdvanceDone AdvanceResult = iota
	// AdvanceNext: the next phase's tokens are held; schedule its end.
	AdvanceNext
	// AdvanceWait: the next phase's tokens are unavailable; the write
	// holds nothing and must Retry when tokens free up. Only Multi-RESET
	// plans can hit this (demand is otherwise non-increasing).
	AdvanceWait
)

// Scheduler admits writes and walks their plans against the power manager.
// It is the run-time half of FPB; Planner is the policy half.
type Scheduler struct {
	cfg     *sim.Config
	planner *Planner
	mgr     *power.Manager
	hub     *obs.Hub

	// Telemetry, registered in the hub's metrics registry.
	started      *obs.Counter
	completed    *obs.Counter
	mrWrites     *obs.Counter
	multiRound   *obs.Counter
	waitStalls   *obs.Counter
	admitFailure *obs.Counter
}

// NewScheduler wires a scheduler over the power manager and registers its
// metrics into hub (nil hub: detached metrics, no tracing).
func NewScheduler(cfg *sim.Config, mgr *power.Manager, hub *obs.Hub) *Scheduler {
	return &Scheduler{
		cfg:          cfg,
		planner:      NewPlanner(cfg),
		mgr:          mgr,
		hub:          hub,
		started:      hub.Counter("core.scheduler.started"),
		completed:    hub.Counter("core.scheduler.completed"),
		mrWrites:     hub.Counter("core.scheduler.multireset_splits"),
		multiRound:   hub.Counter("core.scheduler.multiround_writes"),
		waitStalls:   hub.Counter("core.scheduler.wait_stalls"),
		admitFailure: hub.Counter("core.scheduler.admit_failures"),
	}
}

// Manager exposes the underlying power manager (for telemetry readers).
func (s *Scheduler) Manager() *power.Manager { return s.mgr }

// TryStart attempts to admit the write. Per the paper, the base plan is
// tried first; if its first phase cannot be granted and Multi-RESET is
// enabled, progressively larger RESET splits (2..MultiResetSplit) are tried
// — the greedy "start a portion of the RESETs as early as possible"
// strategy of Section 6.2. Returns (ticket, true) on admission.
//
// Candidate plans are memoized in ps, which the caller keeps beside prof:
// a slot is built only on the first attempt that needs it, so a retried
// write re-runs only the token acquisition. On admission the chosen plan
// moves into the ticket and the rest of the set is released; on failure
// the set keeps every plan it built.
func (s *Scheduler) TryStart(prof *pcm.WriteProfile, ps *PlanSet) (*Ticket, bool) {
	if s.cfg.MultiResetAlways && s.cfg.UsesMultiReset() && prof.Changed > 0 {
		// Ablation mode: unconditional split, no shortfall probe.
		if t, ok := s.tryPlan(prof, ps, min(s.cfg.MultiResetSplit, pcm.MaxMultiResetSplit)); ok {
			s.mrWrites.Inc()
			return t, true
		}
		s.admitFailure.Inc()
		return nil, false
	}
	if t, ok := s.tryPlan(prof, ps, 0); ok {
		return t, true
	}
	if s.cfg.UsesMultiReset() && prof.Changed > 0 {
		for m := 2; m <= s.cfg.MultiResetSplit && m <= pcm.MaxMultiResetSplit; m++ {
			if t, ok := s.tryPlan(prof, ps, m); ok {
				s.mrWrites.Inc()
				return t, true
			}
		}
	}
	s.admitFailure.Inc()
	return nil, false
}

// tryPlan tries to grant the first phase of slot m of the set, admitting
// the write on success.
func (s *Scheduler) tryPlan(prof *pcm.WriteProfile, ps *PlanSet, m int) (*Ticket, bool) {
	plan := s.planner.memo(ps, prof, m)
	g, ok := s.mgr.TryAcquire(plan.Phases[0].Demand)
	if !ok {
		return nil, false
	}
	ps.plans[m] = nil
	s.planner.Drop(ps)
	return s.admit(prof, plan, g), true
}

// DropPlans releases a queued write's memoized plans; call it whenever the
// profile they were built from is rebuilt or released.
func (s *Scheduler) DropPlans(ps *PlanSet) { s.planner.Drop(ps) }

// OutstandingPlans reports how many plans are out of the planner's pool:
// memoized on queued writes or held by live tickets.
func (s *Scheduler) OutstandingPlans() int { return s.planner.Outstanding() }

func (s *Scheduler) admit(prof *pcm.WriteProfile, plan *WritePlan, g *power.Grant) *Ticket {
	s.started.Inc()
	if plan.Rounds > 1 {
		s.multiRound.Inc()
	}
	if s.hub.Tracing() {
		// V carries the Multi-RESET split factor (0/1: unsplit).
		s.hub.Emit(obs.Event{Kind: obs.Instant, Cat: "core", Name: "write.admit",
			ID: -1, V: float64(plan.MRSplit)})
	}
	return &Ticket{
		Profile: prof,
		Plan:    plan,
		grant:   g,
		gcpUsed: g.GCPTokens(),
	}
}

// Advance moves the ticket past the end of its current phase. On
// AdvanceNext the grant now covers the new phase; on AdvanceWait the write
// holds no tokens and the controller must call Retry when power frees up;
// on AdvanceDone everything is released and telemetry recorded.
func (s *Scheduler) Advance(t *Ticket) AdvanceResult {
	t.phase++
	if t.phase >= len(t.Plan.Phases) {
		s.finish(t)
		return AdvanceDone
	}
	g, ok := s.mgr.Resize(t.grant, t.Plan.Phases[t.phase].Demand)
	if !ok {
		t.grant = nil
		t.waiting = true
		s.waitStalls.Inc()
		return AdvanceWait
	}
	t.grant = g
	t.gcpUsed += g.GCPTokens()
	return AdvanceNext
}

// Retry attempts to acquire the tokens for the phase a waiting write is
// stalled on. It reports whether the write may proceed.
func (s *Scheduler) Retry(t *Ticket) bool {
	if !t.waiting {
		return true
	}
	g, ok := s.mgr.TryAcquire(t.Plan.Phases[t.phase].Demand)
	if !ok {
		return false
	}
	t.grant = g
	t.gcpUsed += g.GCPTokens()
	t.waiting = false
	return true
}

// Pause releases the write's tokens at an iteration boundary (write
// pausing, Qureshi et al. HPCA'10). The bank can then serve reads.
func (s *Scheduler) Pause(t *Ticket) {
	if t.paused {
		return
	}
	s.mgr.Release(t.grant)
	t.grant = nil
	t.paused = true
}

// Resume re-acquires the paused phase's tokens; it reports whether the
// write resumed (false: stay paused and retry later).
func (s *Scheduler) Resume(t *Ticket) bool {
	if !t.paused {
		return true
	}
	g, ok := s.mgr.TryAcquire(t.Plan.Phases[t.phase].Demand)
	if !ok {
		return false
	}
	t.grant = g
	t.gcpUsed += g.GCPTokens()
	t.paused = false
	return true
}

// Cancel abandons the write (write cancellation): all tokens are released
// and the ticket becomes dead. The controller re-issues the write from
// scratch later. The plan is recycled, so the ticket's phase accessors
// must not be used afterwards.
func (s *Scheduler) Cancel(t *Ticket) {
	s.mgr.Release(t.grant)
	t.grant = nil
	t.phase = len(t.Plan.Phases)
	s.planner.Release(t.Plan)
	t.Plan = nil
}

// finish completes the write and recycles its plan.
func (s *Scheduler) finish(t *Ticket) {
	s.mgr.Release(t.grant)
	t.grant = nil
	s.mgr.RecordWriteGCPUsage(t.gcpUsed)
	s.completed.Inc()
	s.planner.Release(t.Plan)
	t.Plan = nil
}

// Stats reports scheduler telemetry: admitted writes, completions,
// Multi-RESET admissions, multi-round writes, and boundary stalls.
func (s *Scheduler) Stats() (started, completed, mr, multiRound, stalls, admitFail uint64) {
	return s.started.Value(), s.completed.Value(), s.mrWrites.Value(),
		s.multiRound.Value(), s.waitStalls.Value(), s.admitFailure.Value()
}
