package session

import "repro/internal/relation"

// View is a stable, immutable snapshot of a session for the live
// verification plane: the machine identity, database, and cumulated past
// inputs, cloned inside the owning shard's goroutine. Because the clone is
// taken between steps (shard FIFO), a View can never observe a torn
// mid-step state, and because it shares nothing with the live session,
// verification reads it freely while the session keeps stepping.
//
// For a network session Nodes is set instead of the machine-shaped fields:
// one NodeView per member, each a verifiable machine in its own right
// (verification queries address a node with ?node=).
type View struct {
	ID    string
	Model string
	Src   string
	Steps int
	// DB is the session's database (cloned).
	DB relation.Instance
	// Past is the union of all inputs the session has absorbed (cloned) —
	// for a Spocus machine, the whole of its verification-relevant state.
	Past relation.Instance
	// Nodes holds one view per network member (network sessions only).
	Nodes map[string]*NodeView
}

// NodeView is one network member's verifiable identity: its machine (a
// registry model name or inline source), database, and cumulated consumed
// inputs — external stimulus and wired traffic alike, since both drive the
// node's state.
type NodeView struct {
	Model string
	Src   string
	DB    relation.Instance
	Past  relation.Instance
}

// Peek returns a View of the session. Unlike ExportState it does not freeze the
// session: it is the read primitive of the verification plane and has no
// effect on the data plane beyond occupying one mailbox slot. Peek works on
// frozen (mid-handoff) sessions too — verifying a session that is being
// moved is legitimate.
func (e *Engine) Peek(id string) (*View, error) {
	v, err := e.onSession(id, func(_ *shard, s *Session) (any, error) {
		if s.net != nil {
			nodes := make(map[string]*NodeView, len(s.net.spec.Nodes))
			for _, ns := range s.net.spec.Nodes {
				past := s.net.past[ns.Name]
				if past == nil {
					past = relation.NewInstance()
				} else {
					past = past.Clone()
				}
				nodes[ns.Name] = &NodeView{
					Model: ns.Model,
					Src:   ns.Src,
					DB:    s.net.nw.Node(ns.Name).DB.Clone(),
					Past:  past,
				}
			}
			return &View{ID: s.id, Steps: s.steps, Nodes: nodes}, nil
		}
		return &View{
			ID:    s.id,
			Model: s.model,
			Src:   s.src,
			Steps: s.steps,
			DB:    s.db.Clone(),
			Past:  s.past.Clone(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*View), nil
}
