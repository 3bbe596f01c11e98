package session

import "repro/internal/relation"

// View is a stable snapshot of a session for the live verification plane:
// the machine identity, database, and cumulated past inputs, taken under
// the owning shard's lock. Because it is taken between steps (one lock
// holder at a time), a View can never observe a torn mid-step state, and
// because the session never writes what the View holds, verification reads
// it freely while the session keeps stepping.
//
// A View is read-only. DB is the session's own database, which nothing
// writes for the session's whole life, so the View shares it rather than
// copying it; Past is materialized afresh from the stepper's resident state
// for each Peek. A caller that wants to edit either clones it first.
//
// The session fills ID and Steps and its runner the rest: a machine run
// the machine-shaped fields, a network run Nodes, one NodeView per member,
// each a verifiable machine in its own right (verification queries address
// a node with ?node=).
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
		v := &View{ID: s.id, Steps: s.steps}
		s.run.view(v)
		return v, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*View), nil
}

func (r *machineRun) view(v *View) {
	v.Model, v.Src, v.DB, v.Past = r.model, r.src, r.db, r.stepper.Past()
}
