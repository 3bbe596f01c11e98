package session

import "repro/internal/relation"

// View is a stable snapshot of a session for the live verification plane:
// the machine identity, database, and cumulated past inputs, taken under
// the owning shard's lock. Because it is taken between steps (one lock
// holder at a time), a View can never observe a torn mid-step state, and because the
// session never writes what the View holds, verification reads it freely
// while the session keeps stepping.
//
// A View is read-only. DB is the session's own database, which nothing
// writes for the session's whole life, so the View shares it rather than
// copying it; Past is materialized afresh from the stepper's resident state
// for each Peek. A caller that wants to edit either clones it first.
//
// For a network session Nodes is set instead of the machine-shaped fields:
// one NodeView per member, each a verifiable machine in its own right
// (verification queries address a node with ?node=).
type View struct {
	ID    string
	Model string
	Src   string
	Steps int
	// DB is the session's database (shared, read-only).
	DB relation.Instance
	// Past is the union of all inputs the session has absorbed, read off its
	// state relations past-R — for a Spocus machine, the whole of its
	// verification-relevant state. Nil for any other kind of machine, which
	// the verification plane refuses.
	Past relation.Instance
	// Nodes holds one view per network member (network sessions only).
	Nodes map[string]*NodeView
}

// NodeView is one network member's verifiable identity: its machine (a
// registry model name or inline source), database (shared, read-only), and
// cumulated consumed inputs — external stimulus and wired traffic alike,
// since both drive the node's state (nil for a non-Spocus member).
type NodeView struct {
	Model string
	Src   string
	DB    relation.Instance
	Past  relation.Instance
}

// Peek returns a View of the session. Unlike ExportState it does not freeze the
// session: it is the read primitive of the verification plane and has no
// effect on the data plane beyond holding the shard's lock for as long as
// materializing the past takes. Peek works on frozen (mid-handoff) sessions
// too — verifying a session that is being moved is legitimate.
func (e *Engine) Peek(id string) (*View, error) {
	v, err := e.onSession(id, func(_ *shard, s *Session) (any, error) {
		if s.net != nil {
			nodes := make(map[string]*NodeView, len(s.net.spec.Nodes))
			for _, ns := range s.net.spec.Nodes {
				nodes[ns.Name] = &NodeView{
					Model: ns.Model,
					Src:   ns.Src,
					DB:    s.net.nw.Node(ns.Name).DB,
					Past:  s.net.nw.Past(ns.Name),
				}
			}
			return &View{ID: s.id, Steps: s.steps, Nodes: nodes}, nil
		}
		return &View{
			ID:    s.id,
			Model: s.model,
			Src:   s.src,
			Steps: s.steps,
			DB:    s.db,
			Past:  s.run.Past(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*View), nil
}
