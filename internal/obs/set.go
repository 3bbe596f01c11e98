package obs

import (
	"expvar"
	"sync"
	"weak"
)

// Set is the set of live objects of one kind — engines, verification
// services, routers, wire clients — that a process-wide expvar aggregate
// reports on. It holds its members weakly: Remove takes one out at once,
// and one dropped without Remove leaves when the collector frees it, so
// being reported on never keeps an object reachable. The aggregates named
// with Publish go to expvar on the first Add, so a process that builds no
// member shows none of them. The zero value is ready to use.
type Set[T any] struct {
	mu      sync.Mutex
	members map[weak.Pointer[T]]struct{}
	vars    []setVar[T]
	once    sync.Once
}

type setVar[T any] struct {
	name string
	agg  func([]*T) any
}

// Publish names an expvar aggregate of the set: at each read, agg over the
// live members. Call it before the first Add (from an init function).
func (s *Set[T]) Publish(name string, agg func(members []*T) any) {
	s.vars = append(s.vars, setVar[T]{name, agg})
}

// Add puts p in the set.
func (s *Set[T]) Add(p *T) {
	s.mu.Lock()
	if s.members == nil {
		s.members = make(map[weak.Pointer[T]]struct{})
	}
	s.members[weak.Make(p)] = struct{}{}
	s.mu.Unlock()
	s.once.Do(func() {
		for _, v := range s.vars {
			expvar.Publish(v.name, expvar.Func(func() any { return v.agg(s.Live()) }))
		}
	})
}

// Remove takes p out of the set; removing a non-member does nothing.
func (s *Set[T]) Remove(p *T) {
	s.mu.Lock()
	delete(s.members, weak.Make(p))
	s.mu.Unlock()
}

// Live returns the members neither removed nor collected, in no fixed
// order, and forgets the collected ones.
func (s *Set[T]) Live() []*T {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*T, 0, len(s.members))
	for w := range s.members {
		if p := w.Value(); p != nil {
			out = append(out, p)
		} else {
			delete(s.members, w)
		}
	}
	return out
}
