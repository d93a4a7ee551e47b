package sim

import (
	"container/heap"
	"math/bits"
)

// The event queue is a two-tier calendar (ladder) queue tuned for the
// simulator's arrival pattern: almost every event is scheduled a few dozen
// to a few thousand cycles ahead (cache latencies, PCM pulse widths), with
// a rare far tail (probe intervals, idle timers).
//
//   - Tier 1 is a ring of numBuckets singly-linked FIFO lists covering the
//     cycle window [base, base+numBuckets). Bucket i holds exactly the
//     events for cycle base+i, in scheduling (seq) order, so dispatch within
//     a cycle is a pointer pop — no comparisons, no sift.
//   - Tier 2 is the classic binary heap, holding only events beyond the
//     window. When the window drains, base jumps to the heap minimum and
//     every heap event inside the new window migrates into the ring in
//     (when, seq) order, which keeps same-cycle FIFO order exact.
//
// An occupancy bitmap (one bit per bucket) lets the dispatcher skip runs of
// empty cycles 64 at a time, so sparse regions cost a few word tests
// instead of per-cycle probes.
//
// The combination preserves the binary heap's exact (when, seq) dispatch
// order — TestEngineQueueMatchesReferenceHeap and FuzzEventOrder cross-check
// it against a reference heap — while making Schedule/dispatch O(1) and,
// together with the event free list, allocation-free in steady state.

const (
	// numBuckets is the calendar window width in cycles. It comfortably
	// covers the simulator's common delays (PCM reads ~1064 cycles, SET
	// pulses 1000); longer delays take one heap round-trip.
	numBuckets = 4096
	bitmapLen  = numBuckets / 64
)

// Event index sentinels: index >= 0 means "position in the overflow heap".
const (
	idxIdle   = -1 // not queued (ran, cancelled-and-collected, or never armed)
	idxBucket = -2 // linked into a calendar bucket
)

type eventQueue struct {
	base    Cycle // cycle of bucket 0; all bucket events are in [base, base+numBuckets)
	heads   []*Event
	tails   []*Event
	bitmap  []uint64 // occupancy, one bit per bucket
	nBucket int      // events (incl. cancelled) in buckets
	far     eventHeap
}

func (q *eventQueue) init() {
	q.heads = make([]*Event, numBuckets)
	q.tails = make([]*Event, numBuckets)
	q.bitmap = make([]uint64, bitmapLen)
}

// len counts queued events, including cancelled ones not yet collected.
func (q *eventQueue) len() int { return q.nBucket + len(q.far) }

// push files the event by timestamp: near events go to their cycle bucket,
// far ones to the overflow heap. Callers guarantee ev.when >= q.base, so
// the difference form below is overflow-safe even at when == MaxCycle.
func (q *eventQueue) push(ev *Event) {
	if ev.when-q.base < numBuckets {
		idx := int(ev.when - q.base)
		ev.index = idxBucket
		ev.next = nil
		if q.tails[idx] == nil {
			q.heads[idx] = ev
			q.bitmap[idx>>6] |= 1 << (idx & 63)
		} else {
			q.tails[idx].next = ev
		}
		q.tails[idx] = ev
		q.nBucket++
		return
	}
	heap.Push(&q.far, ev)
}

// popBucket removes and returns the head of bucket idx, which must be
// non-empty.
func (q *eventQueue) popBucket(idx int) *Event {
	ev := q.heads[idx]
	q.heads[idx] = ev.next
	if ev.next == nil {
		q.tails[idx] = nil
		q.bitmap[idx>>6] &^= 1 << (idx & 63)
	}
	ev.next = nil
	q.nBucket--
	return ev
}

// nextOccupied returns the lowest occupied bucket index >= from, or -1.
func (q *eventQueue) nextOccupied(from int) int {
	if from >= numBuckets {
		return -1
	}
	word := from >> 6
	w := q.bitmap[word] >> (from & 63) << (from & 63) // mask bits below from
	for {
		if w != 0 {
			return word<<6 + bits.TrailingZeros64(w)
		}
		word++
		if word >= bitmapLen {
			return -1
		}
		w = q.bitmap[word]
	}
}

// advance moves the window so that it starts at the overflow minimum and
// migrates every overflow event that now falls inside it. Must only be
// called with empty buckets and a non-empty overflow heap.
func (q *eventQueue) advance() {
	q.base = q.far[0].when
	for len(q.far) > 0 && q.far[0].when-q.base < numBuckets {
		// Heap pops arrive in (when, seq) order, so same-cycle FIFO
		// order is preserved by appending.
		q.push(heap.Pop(&q.far).(*Event))
	}
}

// pop removes and returns the earliest live event (skipping and collecting
// cancelled ones), or nil if the queue is empty. collect receives every
// cancelled event removed along the way.
func (q *eventQueue) pop(from Cycle, collect func(*Event)) *Event {
	for {
		scan := 0
		if from > q.base {
			scan = int(from - q.base)
		}
		for q.nBucket > 0 {
			idx := q.nextOccupied(scan)
			if idx < 0 {
				break
			}
			ev := q.popBucket(idx)
			if ev.cancel {
				collect(ev)
				scan = idx
				continue
			}
			return ev
		}
		// Buckets drained; refill from the far heap.
		for len(q.far) > 0 && q.far[0].cancel {
			collect(heap.Pop(&q.far).(*Event))
		}
		if len(q.far) == 0 {
			return nil
		}
		q.advance()
		from = q.base
	}
}

// peek returns the earliest live event without removing it (cancelled
// events encountered on the way are collected), or nil. It never moves the
// window, so it is safe to schedule into the present afterwards.
func (q *eventQueue) peek(from Cycle, collect func(*Event)) *Event {
	scan := 0
	if from > q.base {
		scan = int(from - q.base)
	}
	for q.nBucket > 0 {
		idx := q.nextOccupied(scan)
		if idx < 0 {
			break
		}
		ev := q.heads[idx]
		if ev.cancel {
			collect(q.popBucket(idx))
			scan = idx
			continue
		}
		return ev
	}
	for len(q.far) > 0 {
		if ev := q.far[0]; !ev.cancel {
			return ev
		}
		collect(heap.Pop(&q.far).(*Event))
	}
	return nil
}
