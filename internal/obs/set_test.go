package obs

import (
	"runtime"
	"slices"
	"testing"
)

// TestSetRemoveAndCollect: Remove takes a member out at once, and a member
// nothing else holds leaves once it is collected.
func TestSetRemoveAndCollect(t *testing.T) {
	type obj struct{ buf [64]byte }
	var s Set[obj]
	a, b := new(obj), new(obj)
	s.Add(a)
	s.Add(b)
	if live := s.Live(); len(live) != 2 || !slices.Contains(live, a) || !slices.Contains(live, b) {
		t.Fatalf("after two adds: %d members", len(live))
	}
	s.Remove(a)
	if live := s.Live(); len(live) != 1 || live[0] != b {
		t.Fatalf("after removing one: %d members", len(live))
	}
	b = nil
	runtime.GC()
	if live := s.Live(); len(live) != 0 {
		t.Fatalf("after the last member was dropped: %d members", len(live))
	}
	if len(s.members) != 0 {
		t.Errorf("the set still keeps %d collected entries", len(s.members))
	}
	runtime.KeepAlive(a)
}
