// Package ring implements the consistent-hash ring that places
// content-addressed simulation keys (system.Key) onto fleet nodes, plus a
// small health tracker the routing layers overlay on it.
//
// Placement is deterministic and order-independent: every participant —
// daemons, the sweep coordinator, failover clients — that is configured with
// the same member set computes the same owner list for every key, with no
// coordination protocol. Each member contributes a fixed number of virtual
// points (hashes of "member#i"), so keyspace shares stay roughly even and
// adding or removing one member only moves the keys in its arcs.
//
// The ring itself is immutable after construction; membership changes build
// a new ring. Liveness is NOT part of placement — a down node still owns its
// arcs, and callers walk the successor list (Owners) to find a live replica.
// Keeping placement independent of health is what makes failover
// deterministic: every client agrees on the preference order of nodes for a
// key regardless of what it currently believes about their health.
package ring

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"
)

// DefaultVirtualNodes is the per-member virtual point count. 64 points keeps
// the max/min keyspace share ratio under ~1.5 for small fleets while the
// ring stays tiny (a 16-node fleet is 1024 points).
const DefaultVirtualNodes = 64

type point struct {
	h    uint64
	node string
}

// Ring is an immutable consistent-hash ring over a member set.
type Ring struct {
	vnodes  int
	members []string // sorted, deduplicated
	points  []point  // sorted by hash
}

// New builds a ring with vnodes virtual points per member (vnodes <= 0 uses
// DefaultVirtualNodes). Duplicate and empty member names are dropped; the
// resulting placement is independent of the order members are given in.
func New(vnodes int, members ...string) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	seen := make(map[string]bool, len(members))
	uniq := make([]string, 0, len(members))
	for _, m := range members {
		if m == "" || seen[m] {
			continue
		}
		seen[m] = true
		uniq = append(uniq, m)
	}
	sort.Strings(uniq)
	r := &Ring{vnodes: vnodes, members: uniq}
	r.points = make([]point, 0, len(uniq)*vnodes)
	for _, m := range uniq {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, point{h: pointHash(m, i), node: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.h != b.h {
			return a.h < b.h
		}
		// Hash collisions between distinct members are broken by name so
		// placement stays deterministic.
		return a.node < b.node
	})
	return r
}

// pointHash hashes one virtual point. SHA-256 (truncated to 64 bits) rather
// than a fast hash: point hashing happens only at ring construction, and the
// even distribution matters more than speed.
func pointHash(member string, i int) uint64 {
	sum := sha256.Sum256([]byte(member + "#" + strconv.Itoa(i)))
	return binary.BigEndian.Uint64(sum[:8])
}

// KeyHash positions a content key on the ring. Keys are system.Key hex
// strings (already uniformly distributed), but hashing again keeps placement
// well-defined for arbitrary strings.
func KeyHash(key string) uint64 {
	sum := sha256.Sum256([]byte(key))
	return binary.BigEndian.Uint64(sum[:8])
}

// Len reports the member count.
func (r *Ring) Len() int { return len(r.members) }

// Members returns the sorted member set (a copy).
func (r *Ring) Members() []string {
	out := make([]string, len(r.members))
	copy(out, r.members)
	return out
}

// Contains reports whether member is on the ring.
func (r *Ring) Contains(member string) bool {
	i := sort.SearchStrings(r.members, member)
	return i < len(r.members) && r.members[i] == member
}

// Owner returns the primary owner of key ("" on an empty ring).
func (r *Ring) Owner(key string) string {
	owners := r.Owners(key, 1)
	if len(owners) == 0 {
		return ""
	}
	return owners[0]
}

// Owners returns up to n distinct members in preference order for key: the
// owner of the first virtual point at or clockwise after the key's hash,
// then the next distinct members clockwise. n <= 0 (or n beyond the member
// count) returns every member, so Owners(key, Len()) is the full failover
// order for the key.
func (r *Ring) Owners(key string, n int) []string {
	if len(r.points) == 0 {
		return nil
	}
	if n <= 0 || n > len(r.members) {
		n = len(r.members)
	}
	h := KeyHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= h })
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if seen[p.node] {
			continue
		}
		seen[p.node] = true
		out = append(out, p.node)
	}
	return out
}

// Shares returns each member's owned fraction of the keyspace (primary
// ownership only; fractions sum to 1 on a non-empty ring). The serving
// daemons export their own share as a gauge so a Prometheus view shows ring
// balance at a glance.
func (r *Ring) Shares() map[string]float64 {
	out := make(map[string]float64, len(r.members))
	if len(r.points) == 0 {
		return out
	}
	const whole = float64(1<<63) * 2 // 2^64 as float64
	for i, p := range r.points {
		// The arc ENDING at point i (hash h_i) belongs to p.node: keys hash
		// into (h_{i-1}, h_i] and search clockwise to h_i first.
		prev := r.points[(i+len(r.points)-1)%len(r.points)].h
		arc := p.h - prev // wraps correctly in uint64 arithmetic
		if len(r.points) == 1 {
			arc = ^uint64(0)
		}
		out[p.node] += float64(arc) / whole
	}
	return out
}

// Tracker overlays liveness on a member set. It holds no network code: the
// owner (a probing loop, a client that just saw a connection error) feeds it
// observations, and routing layers consult Alive to skip members that are
// currently believed down. A down member recovers either by an explicit
// MarkAlive (a successful probe) or automatically once its cooldown expires,
// so a fleet with no prober still retries dead nodes eventually instead of
// blacklisting them forever.
type Tracker struct {
	mu       sync.Mutex
	cooldown time.Duration
	now      func() time.Time
	down     map[string]time.Time // member -> instant it may be retried
}

// DefaultCooldown is how long a MarkDown member is skipped before routing
// retries it absent an explicit MarkAlive.
const DefaultCooldown = 5 * time.Second

// NewTracker builds a tracker; cooldown <= 0 uses DefaultCooldown.
func NewTracker(cooldown time.Duration) *Tracker {
	if cooldown <= 0 {
		cooldown = DefaultCooldown
	}
	return &Tracker{cooldown: cooldown, now: time.Now, down: make(map[string]time.Time)}
}

// SetClock replaces the tracker's time source (tests).
func (t *Tracker) SetClock(now func() time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.now = now
}

// MarkDown records a failed interaction with member: Alive(member) turns
// false until the cooldown elapses or MarkAlive is called.
func (t *Tracker) MarkDown(member string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.down[member] = t.now().Add(t.cooldown)
}

// MarkAlive clears a member's down state (e.g. after a successful probe).
func (t *Tracker) MarkAlive(member string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.down, member)
}

// Alive reports whether member is currently believed reachable.
func (t *Tracker) Alive(member string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	until, ok := t.down[member]
	if !ok {
		return true
	}
	if !t.now().Before(until) {
		// Cooldown elapsed: optimistically retryable again.
		delete(t.down, member)
		return true
	}
	return false
}

// Down returns the members currently believed down, sorted.
func (t *Tracker) Down() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	out := make([]string, 0, len(t.down))
	for m, until := range t.down {
		if now.Before(until) {
			out = append(out, m)
		}
	}
	sort.Strings(out)
	return out
}

// VNodes returns the virtual-node count per member.
func (r *Ring) VNodes() int { return r.vnodes }

// String renders the ring compactly for logs: "ring{3 members × 64 vnodes}".
func (r *Ring) String() string {
	return fmt.Sprintf("ring{%d members × %d vnodes}", len(r.members), r.vnodes)
}
