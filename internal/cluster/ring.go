// Package cluster lifts the session engine's shard boundary — already
// hash(sessionID) within one process — across processes: a consistent-hash
// ring maps session IDs onto N spocus-server backends, a health checker
// ejects dead backends from the ring, a router proxies the HTTP/JSON API,
// and handoff ships individual sessions between backends without losing a
// step of their log.
//
// The paper's determinism results carry the whole design: a session's
// state and log are a pure function of its database and input sequence, so
// routing only has to keep one invariant — all of a session's inputs reach
// the same backend, in order — and since a Spocus state is its cumulated
// inputs, rebalancing is "ship the state image and the log, under a
// digest" (see PAPERS.md on relational transducers for declarative
// networking).
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
)

// Ring is a consistent-hash ring with virtual nodes plus an explicit pin
// table for handed-off sessions. Ownership — hashed or pinned — ignores
// health: a key whose owner is down resolves with BackendDownError (503
// at the router) rather than re-homing to the ring successor. A silent
// re-home would let a client re-open the session ID on the wrong backend
// and fork its log the moment the owner recovered with its WAL intact;
// the session's state lives on the owner and nowhere else. Down backends
// are avoided only when *placing* new sessions, and that happens upstream
// (the router re-rolls minted IDs), never by bending the ring.
//
// All methods are safe for concurrent use.
type Ring struct {
	mu      sync.RWMutex
	vnodes  int
	members map[string]*member
	points  []point           // vnode positions of all members, sorted by hash
	pins    map[string]string // sessionID → backend, set by handoff
	gen     uint64            // bumped on every membership/health/pin change
}

type member struct {
	addr string
	up   bool
}

type point struct {
	h    uint64
	addr string
}

// NewRing creates a ring with the given virtual-node count per backend
// (≥128 keeps key distribution within a few percent of uniform; see the
// property tests).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = 128
	}
	return &Ring{
		vnodes:  vnodes,
		members: make(map[string]*member),
		pins:    make(map[string]string),
	}
}

// hash64 positions keys and vnodes on the ring. SHA-256 (truncated) is
// used for its distribution quality, not for security: FNV-style hashes
// cluster noticeably on the structured "addr#i" vnode labels.
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// Add inserts a backend (initially up). Adding an existing backend is a
// no-op.
func (r *Ring) Add(addr string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.members[addr]; ok {
		return
	}
	r.members[addr] = &member{addr: addr, up: true}
	r.rebuild()
}

// Remove deletes a backend and any pins that point at it.
func (r *Ring) Remove(addr string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.members[addr]; !ok {
		return
	}
	delete(r.members, addr)
	for sid, target := range r.pins {
		if target == addr {
			delete(r.pins, sid)
		}
	}
	r.rebuild()
}

// SetUp flips a backend's health. Down backends keep their membership,
// their pins, and their hashed keys — those keys become unroutable, they
// do not move.
func (r *Ring) SetUp(addr string, up bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.members[addr]
	if !ok || m.up == up {
		return
	}
	m.up = up
	r.gen++
}

// Up reports whether addr is a member and currently up.
func (r *Ring) Up(addr string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	m, ok := r.members[addr]
	return ok && m.up
}

// Pin routes key to addr regardless of the hash, recording a completed
// handoff. Pinning to "" clears the pin.
func (r *Ring) Pin(key, addr string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if addr == "" {
		delete(r.pins, key)
	} else {
		r.pins[key] = addr
	}
	r.gen++
}

// rebuild recomputes the sorted vnode positions of the members. All
// members are positioned regardless of health — ownership is
// health-independent (see Lookup) — so points change only on Add/Remove,
// and positions depend only on (addr, vnode index): removing a member
// never moves the remaining members' points, the minimal-disruption
// invariant.
func (r *Ring) rebuild() {
	r.points = r.points[:0]
	for addr := range r.members {
		for i := 0; i < r.vnodes; i++ {
			r.points = append(r.points, point{h: hash64(fmt.Sprintf("%s#%d", addr, i)), addr: addr})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].h < r.points[j].h })
	r.gen++
}

// ErrNoBackends is returned by Lookup when the ring has no members.
var ErrNoBackends = fmt.Errorf("cluster: no backends available")

// BackendDownError reports a key whose owning backend — hashed or pinned —
// is down: the key cannot be served elsewhere because its session state
// lives there and nowhere else.
type BackendDownError struct{ Addr string }

func (err *BackendDownError) Error() string {
	return fmt.Sprintf("cluster: backend %s is down", err.Addr)
}

// Lookup resolves key to its owning backend — the pin target if the key
// was handed off, otherwise the first vnode clockwise from hash(key) —
// and reports BackendDownError when that owner is down. Ownership never
// depends on health: a down owner makes its keys temporarily unroutable,
// it does not re-home them.
func (r *Ring) Lookup(key string) (string, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	addr, pinned := r.pins[key]
	if !pinned {
		if len(r.points) == 0 {
			return "", ErrNoBackends
		}
		addr = r.owner(key)
	}
	if m, ok := r.members[addr]; ok && m.up {
		return addr, nil
	}
	return addr, &BackendDownError{Addr: addr}
}

// owner is the hash-position lookup; callers hold r.mu and have checked
// that points is non-empty.
func (r *Ring) owner(key string) string {
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].addr
}

// HashOwner returns key's owner by hash position alone, ignoring pins and
// health (false when the ring is empty). Pin recovery uses it to spot
// sessions living off their hash position after a router restart.
func (r *Ring) HashOwner(key string) (string, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return "", false
	}
	return r.owner(key), true
}

// Members returns all backend addresses, sorted, regardless of health.
func (r *Ring) Members() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	addrs := make([]string, 0, len(r.members))
	for addr := range r.members {
		addrs = append(addrs, addr)
	}
	sort.Strings(addrs)
	return addrs
}

// UpMembers returns the addresses currently up, sorted.
func (r *Ring) UpMembers() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	addrs := make([]string, 0, len(r.members))
	for addr, m := range r.members {
		if m.up {
			addrs = append(addrs, addr)
		}
	}
	sort.Strings(addrs)
	return addrs
}

// MemberInfo describes one backend in the ring snapshot.
type MemberInfo struct {
	Addr string `json:"addr"`
	Up   bool   `json:"up"`
	// Share is the fraction of the hash space owned by this backend.
	// Ownership ignores health: a down member keeps its share — those
	// keys are unroutable (503), not re-homed.
	Share float64 `json:"keyspace_share"`
	// Pins counts sessions explicitly pinned here by handoff.
	Pins int `json:"pinned_sessions"`
}

// Info is the ring snapshot served at GET /debug/shards.
type Info struct {
	Vnodes     int               `json:"vnodes"`
	Generation uint64            `json:"generation"`
	Members    []MemberInfo      `json:"members"`
	Pins       map[string]string `json:"pins,omitempty"`
}

// Snapshot captures the live ring: membership, health, per-backend
// keyspace share (from vnode arc lengths), and the pin table.
func (r *Ring) Snapshot() Info {
	r.mu.RLock()
	defer r.mu.RUnlock()
	share := make(map[string]float64)
	if n := len(r.points); n > 0 {
		const whole = float64(1<<63) * 2 // 2^64 as float
		for i, p := range r.points {
			// The arc ending at p.h (owned by p) starts at the previous
			// point; the first point also owns the wrap-around arc.
			var arc uint64
			if i == 0 {
				arc = r.points[0].h + (^r.points[n-1].h + 1)
			} else {
				arc = p.h - r.points[i-1].h
			}
			share[p.addr] += float64(arc) / whole
		}
	}
	pinCount := make(map[string]int)
	for _, addr := range r.pins {
		pinCount[addr]++
	}
	info := Info{Vnodes: r.vnodes, Generation: r.gen}
	addrs := make([]string, 0, len(r.members))
	for addr := range r.members {
		addrs = append(addrs, addr)
	}
	sort.Strings(addrs)
	for _, addr := range addrs {
		info.Members = append(info.Members, MemberInfo{
			Addr:  addr,
			Up:    r.members[addr].up,
			Share: share[addr],
			Pins:  pinCount[addr],
		})
	}
	if len(r.pins) > 0 {
		info.Pins = make(map[string]string, len(r.pins))
		for k, v := range r.pins {
			info.Pins[k] = v
		}
	}
	return info
}
