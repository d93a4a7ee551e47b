package power

import (
	"fmt"
	"sort"

	"fpb/internal/obs"
	"fpb/internal/sim"
	"fpb/internal/stats"
)

// Demand is the power a write phase needs, in RESET-equivalent tokens.
type Demand struct {
	// DIMM is the total token demand charged against the DIMM budget.
	DIMM float64
	// PerChip is the per-chip token demand; nil when chip budgets are not
	// enforced (Ideal and DIMM-only schemes).
	PerChip []float64
}

// Total sums the per-chip demand.
func (d *Demand) Total() float64 {
	t := 0.0
	for _, c := range d.PerChip {
		t += c
	}
	return t
}

// Grant records a satisfied Demand so it can be released or resized later.
// Grants are pooled inside the Manager: Release recycles them, so a grant
// must not be used after it is released.
type Grant struct {
	dimm       float64
	lcp        []float64 // tokens taken from each chip's LCP
	gcpOut     float64   // GCP output tokens supplied
	borrowed   []float64 // LCP tokens borrowed per chip to fund the GCP
	maxSegment float64   // largest single GCP-powered chip segment
	pooled     bool      // in the manager's free list; guards double release
}

// GCPTokens reports the GCP output tokens this grant is consuming.
func (g *Grant) GCPTokens() float64 { return g.gcpOut }

// Manager owns every pool and implements the acquisition policy, including
// the GCP segment rule of the paper: a chip segment is powered entirely by
// its LCP or entirely by the GCP, never both.
type Manager struct {
	cfg *sim.Config
	hub *obs.Hub

	dimm     *Pool
	chips    []*Pool
	gcp      *Pool // capacity = max GCP output tokens
	borrowed []float64

	// Telemetry for Figures 13/14 and the energy-waste analysis. The
	// counters live in the hub's metrics registry (registered by
	// NewManager); the float extrema/summaries stay local and are
	// exported as gauges.
	gcpMaxOut     float64
	gcpMaxGrant   float64       // largest single-grant GCP output
	gcpMaxSegment float64       // largest single chip segment the GCP powered
	gcpPerWrite   stats.Summary // GCP output tokens requested per line write
	gcpWasteIn    float64       // input power burned by GCP inefficiency (token·phases)
	deniedDIMM    *obs.Counter
	deniedChip    *obs.Counter
	deniedGCP     *obs.Counter
	grantsIssued  *obs.Counter
	scratchOrder  []int
	scratchShort  []int
	scratchNeeded []float64
	grantFree     []*Grant
	vecFree       [][]float64 // pooled per-chip vectors, each len(chips), zeroed
}

// NewManager builds pools from the configuration and registers the
// manager's metrics into hub (nil hub: metrics stay detached, no tracing).
func NewManager(cfg *sim.Config, hub *obs.Hub) *Manager {
	m := &Manager{cfg: cfg, hub: hub}
	m.dimm = NewPool(cfg.DIMMTokens)
	m.chips = make([]*Pool, cfg.Chips)
	for i := range m.chips {
		m.chips[i] = NewPool(cfg.LCPTokens())
	}
	gcpCap := 0.0
	if cfg.UsesGCP() {
		gcpCap = cfg.GCPTokens()
	}
	m.gcp = NewPool(gcpCap)
	m.borrowed = make([]float64, cfg.Chips)

	m.deniedDIMM = hub.Counter("power.denied.dimm")
	m.deniedChip = hub.Counter("power.denied.chip")
	m.deniedGCP = hub.Counter("power.denied.gcp")
	m.grantsIssued = hub.Counter("power.grants")
	hub.Gauge("power.dimm.tokens_in_use", m.dimm.InUse)
	hub.Gauge("power.dimm.tokens_free", m.dimm.Available)
	hub.Gauge("power.gcp.tokens_in_use", m.gcp.InUse)
	hub.Gauge("power.gcp.tokens_free", m.gcp.Available)
	hub.Gauge("power.gcp.max_out", func() float64 { return m.gcpMaxOut })
	hub.Gauge("power.gcp.waste_in", func() float64 { return m.gcpWasteIn })
	hub.Gauge("power.gcp.avg_per_write", m.gcpPerWrite.Mean)
	for i := range m.chips {
		p := m.chips[i]
		hub.Gauge(fmt.Sprintf("power.chip.%d.tokens_in_use", i), p.InUse)
	}
	return m
}

// DIMMAvailable returns the free DIMM-level tokens.
func (m *Manager) DIMMAvailable() float64 { return m.dimm.Available() }

// ChipAvailable returns the free tokens of chip c's LCP.
func (m *Manager) ChipAvailable(c int) float64 { return m.chips[c].Available() }

// GCPInUse returns the GCP output tokens currently supplying segments.
func (m *Manager) GCPInUse() float64 { return m.gcp.InUse() }

// CanAcquire reports whether the demand could be granted right now without
// mutating any state.
func (m *Manager) CanAcquire(d Demand) bool {
	ok, g := m.plan(d)
	m.recycle(g) // planned but never committed: no tokens to return
	return ok
}

// newGrant pops the grant pool or allocates.
func (m *Manager) newGrant() *Grant {
	if n := len(m.grantFree); n > 0 {
		g := m.grantFree[n-1]
		m.grantFree = m.grantFree[:n-1]
		g.pooled = false
		return g
	}
	return &Grant{}
}

// newVec pops a zeroed per-chip vector or allocates one.
func (m *Manager) newVec() []float64 {
	if n := len(m.vecFree); n > 0 {
		v := m.vecFree[n-1]
		m.vecFree = m.vecFree[:n-1]
		return v
	}
	return make([]float64, len(m.chips))
}

// recycle returns a grant and its vectors to the pools without touching
// token accounting (callers return tokens first if the grant was
// committed). Recycling nil or an already pooled grant is a no-op.
func (m *Manager) recycle(g *Grant) {
	if g == nil || g.pooled {
		return
	}
	g.pooled = true
	if g.lcp != nil {
		clear(g.lcp)
		m.vecFree = append(m.vecFree, g.lcp)
		g.lcp = nil
	}
	if g.borrowed != nil {
		clear(g.borrowed)
		m.vecFree = append(m.vecFree, g.borrowed)
		g.borrowed = nil
	}
	g.dimm, g.gcpOut, g.maxSegment = 0, 0, 0
	m.grantFree = append(m.grantFree, g)
}

// TryAcquire attempts to grant the demand; it returns (grant, true) on
// success and (nil, false) if any budget would be violated.
func (m *Manager) TryAcquire(d Demand) (*Grant, bool) {
	ok, g := m.plan(d)
	if !ok {
		return nil, false
	}
	m.commit(d, g)
	return g, true
}

// plan computes how the demand would be satisfied. It mutates only scratch
// space; commit applies the plan.
func (m *Manager) plan(d Demand) (bool, *Grant) {
	if m.cfg.EnforcesDIMMBudget() && !m.dimm.CanAcquire(d.DIMM) {
		m.deniedDIMM.Inc()
		return false, nil
	}
	g := m.newGrant()
	g.dimm = d.DIMM
	if !m.cfg.EnforcesChipBudget() || d.PerChip == nil {
		return true, g
	}
	if len(d.PerChip) != len(m.chips) {
		panic(fmt.Sprintf("power: demand for %d chips, manager has %d", len(d.PerChip), len(m.chips)))
	}
	g.lcp = m.newVec()
	// Pass 1: segments the LCPs can power directly.
	m.scratchShort = m.scratchShort[:0]
	gcpOutNeeded := 0.0
	maxSegment := 0.0
	for c, need := range d.PerChip {
		if need <= 0 {
			continue
		}
		if m.chips[c].CanAcquire(need) {
			g.lcp[c] = need
		} else {
			m.scratchShort = append(m.scratchShort, c)
			gcpOutNeeded += need
			if need > maxSegment {
				maxSegment = need
			}
		}
	}
	g.maxSegment = maxSegment
	if len(m.scratchShort) == 0 {
		return true, g
	}
	// Pass 2: the GCP powers every short segment in full (segment rule).
	if !m.cfg.UsesGCP() || !m.gcp.CanAcquire(gcpOutNeeded) {
		if m.cfg.UsesGCP() && m.gcp.CanAcquire(0) {
			m.deniedGCP.Inc()
		} else {
			m.deniedChip.Inc()
		}
		m.recycle(g)
		return false, nil
	}
	// Fund the GCP: borrow gcpOutNeeded * E_LCP / E_GCP raw LCP tokens
	// from chips with spare capacity (Eq. 5), greedily from the chips
	// with the most headroom after their own LCP allocations.
	borrowNeed := gcpOutNeeded * m.cfg.LCPEff / m.cfg.GCPEff
	g.borrowed = m.newVec()
	if cap(m.scratchOrder) < len(m.chips) {
		m.scratchOrder = make([]int, len(m.chips))
		m.scratchNeeded = make([]float64, len(m.chips))
	}
	order := m.scratchOrder[:len(m.chips)]
	headroom := m.scratchNeeded[:len(m.chips)]
	for c := range order {
		order[c] = c
		headroom[c] = m.chips[c].Available() - g.lcp[c]
	}
	sort.Slice(order, func(i, j int) bool { return headroom[order[i]] > headroom[order[j]] })
	remaining := borrowNeed
	for _, c := range order {
		if remaining <= epsilon {
			break
		}
		take := headroom[c]
		if take <= 0 {
			continue
		}
		if take > remaining {
			take = remaining
		}
		g.borrowed[c] = take
		remaining -= take
	}
	if remaining > epsilon {
		m.deniedGCP.Inc()
		m.recycle(g)
		return false, nil
	}
	g.gcpOut = gcpOutNeeded
	return true, g
}

// commit applies a planned grant to the pools and records telemetry.
func (m *Manager) commit(d Demand, g *Grant) {
	if m.cfg.EnforcesDIMMBudget() {
		m.dimm.Acquire(g.dimm)
	} else {
		g.dimm = 0
	}
	for c, n := range g.lcp {
		if n > 0 {
			m.chips[c].Acquire(n)
		}
	}
	for c, n := range g.borrowed {
		if n > 0 {
			m.chips[c].Acquire(n)
		}
	}
	if g.gcpOut > 0 {
		m.gcp.Acquire(g.gcpOut)
		if used := m.gcp.InUse(); used > m.gcpMaxOut {
			m.gcpMaxOut = used
		}
		if g.gcpOut > m.gcpMaxGrant {
			m.gcpMaxGrant = g.gcpOut
		}
		if g.maxSegment > m.gcpMaxSegment {
			m.gcpMaxSegment = g.maxSegment
		}
		// Input power funneled through the GCP that does not reach
		// cells: borrowed/E_LCP raw input vs gcpOut useful output.
		m.gcpWasteIn += g.gcpOut*m.cfg.LCPEff/m.cfg.GCPEff - g.gcpOut
		if m.hub.Tracing() {
			m.hub.Emit(obs.Event{Kind: obs.Instant, Cat: "power", Name: "gcp.borrow", ID: -1, V: g.gcpOut})
			m.hub.Emit(obs.Event{Kind: obs.Meter, Cat: "power", Name: "gcp.tokens_in_use", ID: -1, V: m.gcp.InUse()})
		}
	}
	m.grantsIssued.Inc()
}

// Release returns every token held by the grant and recycles it; the grant
// must not be used afterwards. Releasing nil or an already released grant
// is a no-op.
func (m *Manager) Release(g *Grant) {
	if g == nil || g.pooled {
		return
	}
	if g.dimm > 0 {
		m.dimm.Release(g.dimm)
	}
	for c, n := range g.lcp {
		if n > 0 {
			m.chips[c].Release(n)
		}
	}
	for c, n := range g.borrowed {
		if n > 0 {
			m.chips[c].Release(n)
		}
	}
	if g.gcpOut > 0 {
		m.gcp.Release(g.gcpOut)
		if m.hub.Tracing() {
			m.hub.Emit(obs.Event{Kind: obs.Instant, Cat: "power", Name: "gcp.return", ID: -1, V: g.gcpOut})
			m.hub.Emit(obs.Event{Kind: obs.Meter, Cat: "power", Name: "gcp.tokens_in_use", ID: -1, V: m.gcp.InUse()})
		}
	}
	m.recycle(g)
}

// Resize releases old and immediately tries to acquire next; on failure the
// old grant is gone (the write holds nothing and must wait at the iteration
// boundary). This release-then-acquire order is safe for FPB-IPM because
// per-iteration demand never increases within a write; only Multi-RESET's
// RESET→SET transition can fail, which models the short boundary stall.
func (m *Manager) Resize(old *Grant, next Demand) (*Grant, bool) {
	m.Release(old)
	return m.TryAcquire(next)
}

// RecordWriteGCPUsage notes the total GCP output tokens a completed line
// write requested across its phases (Figure 14 telemetry). Writes that
// never touched the GCP record zero.
func (m *Manager) RecordWriteGCPUsage(tokens float64) {
	m.gcpPerWrite.Add(tokens)
}

// MaxGCPOut reports the maximum concurrent GCP output observed (Figure 13).
func (m *Manager) MaxGCPOut() float64 { return m.gcpMaxOut }

// MaxGCPGrant reports the largest GCP output supplied to a single write
// phase.
func (m *Manager) MaxGCPGrant() float64 { return m.gcpMaxGrant }

// MaxGCPSegment reports the largest single chip segment the GCP ever
// powered — the pump-sizing criterion of Figure 13/Table 3: the hot-chip
// shortfall the mapping leaves behind, which a smaller pump could not have
// covered.
func (m *Manager) MaxGCPSegment() float64 { return m.gcpMaxSegment }

// AvgGCPPerWrite reports the mean GCP output tokens requested per line
// write (Figure 14).
func (m *Manager) AvgGCPPerWrite() float64 { return m.gcpPerWrite.Mean() }

// WastedInputPower reports accumulated GCP conversion losses, in
// token-phases (proportional to wasted energy).
func (m *Manager) WastedInputPower() float64 { return m.gcpWasteIn }

// Denials reports how many acquisition attempts failed at the DIMM, chip,
// and GCP levels respectively.
func (m *Manager) Denials() (dimm, chip, gcp uint64) {
	return m.deniedDIMM.Value(), m.deniedChip.Value(), m.deniedGCP.Value()
}

// Grants reports how many acquisitions succeeded.
func (m *Manager) Grants() uint64 { return m.grantsIssued.Value() }

// CheckInvariants panics if pool accounting has drifted; tests call this
// after workloads complete, when all tokens must be free.
func (m *Manager) CheckInvariants(allFree bool) {
	if !allFree {
		return
	}
	if m.dimm.InUse() > epsilon {
		panic(fmt.Sprintf("power: %.6f DIMM tokens leaked", m.dimm.InUse()))
	}
	for c, p := range m.chips {
		if p.InUse() > epsilon {
			panic(fmt.Sprintf("power: %.6f tokens leaked on chip %d", p.InUse(), c))
		}
	}
	if m.gcp.InUse() > epsilon {
		panic(fmt.Sprintf("power: %.6f GCP tokens leaked", m.gcp.InUse()))
	}
}
