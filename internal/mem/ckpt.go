package mem

import (
	"fmt"
	"sort"

	"fpb/internal/ckpt"
	"fpb/internal/mapping"
	"fpb/internal/sim"
)

// rotShiftEvery is the rotator's effective shift interval under cfg: PWL off
// means no rotation, regardless of the configured interval.
func rotShiftEvery(cfg *sim.Config) int {
	if cfg.PWL {
		return cfg.PWLShiftWrites
	}
	return 0
}

// Quiesced reports whether the memory subsystem is at a checkpointable
// barrier: no queued or in-flight work, no core waiting for queue space, no
// burst draining, every power token free, and every power plan back in the
// planner's pool (a plan still out means a leaked memo or ticket).
func (c *Controller) Quiesced() bool {
	return c.Drained() && !c.burst &&
		len(c.readSpaceWaiters) == 0 && len(c.writeSpaceWaiters) == 0 &&
		c.sched.Manager().Quiesced() && c.sched.OutstandingPlans() == 0
}

// Rebind re-derives every configuration-dependent structure after the warmup
// barrier swapped the shared config's policy fields to the measurement
// values: the cell mapping and its tables, the rotator's shift interval, and
// the power pools. Structural fields (banks, chips, line size, queue depths)
// must be unchanged — the warmup config pins only policy fields. Plans
// depend on the scheme, so Rebind panics unless the controller is quiesced:
// a plan memoized under the old scheme must not survive the switch.
func (c *Controller) Rebind() {
	if !c.Quiesced() {
		panic("mem: Rebind on a controller that is not quiesced")
	}
	cfg := c.cfg
	c.mapFn = mapping.New(cfg.CellMapping, cfg.CellsPerLine(), cfg.Chips)
	c.mapTab = mapping.NewTable(c.mapFn, cfg.CellsPerLine(), cfg.Chips)
	c.rot.ShiftEvery = rotShiftEvery(cfg)
	c.sched.Manager().Reconfigure()
}

// ResetMeasurement zeroes the subsystem's measurement statistics at the
// warmup barrier: latency/energy summaries, the latency histogram, burst
// time, bus utilization, power telemetry, and every hub-registry counter.
// Model state (store content, wear counts, rotation offsets) is untouched.
func (c *Controller) ResetMeasurement() {
	c.readLatency.Reset()
	c.writeLatency.Reset()
	c.writeLatHist.Reset()
	c.cellChanges.Reset()
	c.writeEnergy.Reset()
	c.burstCycles = 0
	c.chanBus.busy = 0
	c.dimmBus.busy = 0
	c.sched.Manager().ResetTelemetry()
	c.hub.Registry().ResetMeasurement()
}

// SaveState serializes the controller's model state at a quiesce barrier:
// PCM store content, rotator state, per-line wear counts (ascending address
// order), and the bus reservation horizons. Queues, banks, and power grants
// are all provably empty at the barrier and are not captured; SaveState
// panics if they are not.
func (c *Controller) SaveState(w *ckpt.Writer) {
	w.Section("mem")
	if !c.Quiesced() {
		panic("mem: checkpointing a controller that is not quiesced")
	}
	c.store.SaveState(w)
	c.rot.SaveState(w)
	addrs := make([]uint64, 0, len(c.lineWrites))
	for a := range c.lineWrites {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	w.U64(uint64(len(addrs)))
	for _, a := range addrs {
		w.U64(a)
		w.U64(c.lineWrites[a])
	}
	w.U64(c.maxLineWr)
	w.U64(uint64(c.chanBus.freeAt))
	w.U64(uint64(c.dimmBus.freeAt))
}

// RestoreState loads model state written by SaveState into a freshly built
// (idle) controller.
func (c *Controller) RestoreState(r *ckpt.Reader) error {
	r.Section("mem")
	if !c.Quiesced() {
		return fmt.Errorf("mem: restoring into a controller with in-flight work")
	}
	if err := c.store.RestoreState(r); err != nil {
		return err
	}
	if err := c.rot.RestoreState(r); err != nil {
		return err
	}
	n := r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	lw := make(map[uint64]uint64, n)
	for i := uint64(0); i < n; i++ {
		a, cnt := r.U64(), r.U64()
		lw[a] = cnt
	}
	maxWr := r.U64()
	chanFree, dimmFree := sim.Cycle(r.U64()), sim.Cycle(r.U64())
	if err := r.Err(); err != nil {
		return err
	}
	c.lineWrites = lw
	c.maxLineWr = maxWr
	c.chanBus.freeAt = chanFree
	c.dimmBus.freeAt = dimmFree
	return nil
}
