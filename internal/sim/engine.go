// Package sim provides the discrete-event simulation kernel used by every
// other package in this repository: a deterministic calendar/heap event
// queue keyed on a cycle clock, and a seedable pseudo-random number
// generator.
//
// All timing in the simulator is expressed in CPU cycles (4 GHz by default,
// so 1 ns = 4 cycles). Components schedule callbacks on the Engine; the
// Engine runs them in (time, sequence) order so simulations are fully
// deterministic for a given seed and configuration.
package sim

import (
	"fmt"
	"math"
)

// Cycle is a point in simulated time, measured in CPU clock cycles.
type Cycle uint64

// MaxCycle is the largest representable cycle; used as "never".
const MaxCycle = Cycle(math.MaxUint64)

// Event is a scheduled callback. The callback runs exactly once, at the
// cycle it was scheduled for, unless cancelled first.
//
// Ownership: a handle returned by At/After is valid until the event's
// callback runs (or until a cancelled event is collected); after that the
// engine recycles the Event through its free list and the handle must be
// dropped. Every caller that keeps a handle across dispatch must clear it
// in the callback, as the memory controller does with its phase events.
// Long-lived components that re-schedule the same logical timer should
// instead embed an Event and use Arm/ArmAt — caller-owned events are never
// pooled, so their handles stay valid indefinitely.
type Event struct {
	when   Cycle
	seq    uint64 // tie-breaker: FIFO among events at the same cycle
	fn     func()
	next   *Event // bucket FIFO / free-list link
	index  int    // heap index; idxBucket in a bucket, idxIdle when not queued
	cancel bool
	owned  bool // caller-owned via Arm: never returned to the pool
}

// When reports the cycle the event is scheduled for.
func (e *Event) When() Cycle { return e.when }

// Scheduled reports whether the event is still pending.
func (e *Event) Scheduled() bool { return e != nil && e.index != idxIdle && !e.cancel }

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = idxIdle
	*h = old[:n-1]
	return e
}

// Engine is a discrete-event simulator. The zero value is not usable; call
// NewEngine.
type Engine struct {
	now   Cycle
	seq   uint64
	queue eventQueue
	free  *Event // recycled Events, linked through next
	ran   uint64
	hook  DispatchHook
}

// DispatchHook observes every event dispatch: now is the cycle the clock
// just advanced to, ran the total events executed including this one.
type DispatchHook func(now Cycle, ran uint64)

// NewEngine returns an empty engine positioned at cycle 0.
func NewEngine() *Engine {
	e := &Engine{}
	e.queue.init()
	return e
}

// Now reports the current simulated cycle.
func (e *Engine) Now() Cycle { return e.now }

// EventsRun reports how many events have executed so far.
func (e *Engine) EventsRun() uint64 { return e.ran }

// Pending reports how many events are waiting in the queue (including
// cancelled events that have not yet been collected).
func (e *Engine) Pending() int { return e.queue.len() }

// alloc pops the free list or allocates a fresh Event.
func (e *Engine) alloc() *Event {
	ev := e.free
	if ev == nil {
		return &Event{index: idxIdle}
	}
	e.free = ev.next
	ev.next = nil
	return ev
}

// recycle resets a finished pool event and pushes it onto the free list.
// Caller-owned events are only detached, never pooled.
func (e *Engine) recycle(ev *Event) {
	ev.index = idxIdle
	ev.fn = nil
	ev.cancel = false
	if ev.owned {
		ev.next = nil
		return
	}
	ev.next = e.free
	e.free = ev
}

// At schedules fn to run at the absolute cycle when. Scheduling in the past
// panics: that is always a component bug, and silently reordering time would
// corrupt every downstream measurement. The returned handle is valid until
// the callback runs; see the Event ownership note.
func (e *Engine) At(when Cycle, fn func()) *Event {
	if when < e.now {
		panic(fmt.Sprintf("sim: scheduling event at cycle %d before now %d", when, e.now))
	}
	ev := e.alloc()
	ev.when, ev.seq, ev.fn = when, e.seq, fn
	e.seq++
	e.queue.push(ev)
	return ev
}

// After schedules fn to run delay cycles from now.
func (e *Engine) After(delay Cycle, fn func()) *Event {
	return e.At(e.now+delay, fn)
}

// ArmAt schedules a caller-owned event at the absolute cycle when. The
// event must not be pending; arming a pending event panics. Caller-owned
// events are never recycled into the engine's pool, so components that fire
// the same logical timer repeatedly (one embedded Event per operation)
// schedule without touching the allocator or racing stale handles.
func (e *Engine) ArmAt(ev *Event, when Cycle, fn func()) {
	if when < e.now {
		panic(fmt.Sprintf("sim: scheduling event at cycle %d before now %d", when, e.now))
	}
	if ev.index != idxIdle {
		panic("sim: ArmAt on an event that is still pending")
	}
	ev.when, ev.seq, ev.fn = when, e.seq, fn
	ev.cancel = false
	ev.owned = true
	e.seq++
	e.queue.push(ev)
}

// Arm schedules a caller-owned event delay cycles from now; see ArmAt.
func (e *Engine) Arm(ev *Event, delay Cycle, fn func()) {
	e.ArmAt(ev, e.now+delay, fn)
}

// Cancel prevents a pending event from running. Cancelling a nil, already
// run, or already cancelled event is a no-op.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.index == idxIdle {
		return
	}
	ev.cancel = true
}

// Clock snapshots the engine's scheduling state — current cycle, next
// sequence number, and events run — for checkpointing at a quiesce barrier.
func (e *Engine) Clock() (now Cycle, seq, ran uint64) {
	return e.now, e.seq, e.ran
}

// RestoreClock positions an empty engine at a checkpointed clock state.
// Restoring seq is what keeps post-restore event ordering bit-identical to
// the uninterrupted run: the first event scheduled after the barrier gets
// the same (when, seq) key on both paths. It panics with pending events —
// the checkpoint format only captures quiesced systems (see internal/ckpt).
func (e *Engine) RestoreClock(now Cycle, seq, ran uint64) {
	if e.Pending() != 0 {
		panic("sim: RestoreClock on an engine with pending events")
	}
	e.now = now
	e.seq = seq
	e.ran = ran
	e.queue.base = now
}

// SetDispatchHook installs (or, with nil, removes) a callback observing
// every event dispatch — the tracer's tap into the event loop. The only
// cost without a hook is one nil check per event.
func (e *Engine) SetDispatchHook(h DispatchHook) { e.hook = h }

// Step runs the next pending event, advancing the clock to its timestamp.
// It reports false when no events remain.
func (e *Engine) Step() bool {
	ev := e.queue.pop(e.now, e.recycle)
	if ev == nil {
		return false
	}
	e.now = ev.when
	e.ran++
	fn := ev.fn
	// Recycle before dispatch: fn frequently re-schedules, and handing it
	// the just-finished Event keeps the steady-state pool at one entry.
	e.recycle(ev)
	if e.hook != nil {
		e.hook(e.now, e.ran)
	}
	fn()
	return true
}

// Run executes events until the queue is empty or until limit events have
// run (0 means no limit). It returns the number of events executed.
func (e *Engine) Run(limit uint64) uint64 {
	var n uint64
	for limit == 0 || n < limit {
		if !e.Step() {
			break
		}
		n++
	}
	return n
}

// RunUntil executes events with timestamps <= deadline. Events scheduled at
// exactly the deadline do run. The clock is left at the timestamp of the
// last executed event (it does not jump to the deadline if the queue drains
// early).
func (e *Engine) RunUntil(deadline Cycle) {
	for {
		next := e.queue.peek(e.now, e.recycle)
		if next == nil || next.when > deadline {
			return
		}
		e.Step()
	}
}

// RunWhile executes events while cond() returns true and events remain.
func (e *Engine) RunWhile(cond func() bool) {
	for cond() && e.Step() {
	}
}
