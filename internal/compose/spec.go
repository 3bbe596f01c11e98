package compose

import (
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/relation"
)

// Spec is the serializable description of a network: the form the open-
// session API, the WAL, snapshots, and scenario files all speak. Each node
// is a named transducer (a registry model name or an inline program) with
// an optional database; each wire routes one node's output relation into
// another node's input relation.
//
// Cycles — including self-wires — are legal: the unit-delay semantics makes
// feedback well-defined (a node never reads its own current-step output).
type Spec struct {
	Nodes []NodeSpec `json:"nodes"`
	Wires []WireSpec `json:"wires"`
}

// NodeSpec names one participant. Exactly one of Model (a registry name,
// resolved by the Resolver at build time) or Src (an inline transducer
// program) must be set. DB overrides the model's default database; for
// inline programs a nil DB means empty.
type NodeSpec struct {
	Name  string            `json:"name"`
	Model string            `json:"model,omitempty"`
	Src   string            `json:"src,omitempty"`
	DB    relation.Instance `json:"db,omitempty"`
}

// WireSpec is the serializable form of a Wire.
type WireSpec struct {
	From   string `json:"from"`
	Output string `json:"output"`
	To     string `json:"to"`
	Input  string `json:"input"`
}

// Resolver maps a registry model name to a machine and its default
// database. Build only reads the machine, which may be shared (the session
// engine passes one machine per registry model), and clones the database
// for the node. internal/models supplies the canonical resolver; compose
// stays free of the registry dependency so specs can be built against any
// library.
type Resolver func(name string) (*core.Machine, relation.Instance, error)

// ParseSpec decodes and validates a JSON network spec. It is the parser
// the scenario fuzzer drives: any input either yields a buildable spec or
// a descriptive error, never a panic.
func ParseSpec(data []byte, resolve Resolver) (*Spec, *Network, error) {
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, nil, fmt.Errorf("compose: spec: %w", err)
	}
	n, err := s.Build(resolve)
	if err != nil {
		return nil, nil, err
	}
	return &s, n, nil
}

// Build validates the spec and constructs its Network: node names must be
// unique and non-empty, each node must carry exactly one of model/src, the
// model must resolve (or the program parse), and every wire must connect
// declared relations of equal arity. The returned network is fresh — nodes
// get cloned databases and their own steppers, so concurrent sessions built
// from one spec never share state (a resolved machine, which nothing
// writes, they may share).
func (s *Spec) Build(resolve Resolver) (*Network, error) {
	if len(s.Nodes) == 0 {
		return nil, fmt.Errorf("compose: spec has no nodes")
	}
	n := New()
	for i, ns := range s.Nodes {
		if ns.Name == "" {
			return nil, fmt.Errorf("compose: node %d has no name", i)
		}
		if (ns.Model == "") == (ns.Src == "") {
			return nil, fmt.Errorf("compose: node %s: exactly one of model or src is required", ns.Name)
		}
		var m *core.Machine
		var db relation.Instance
		if ns.Model != "" {
			if resolve == nil {
				return nil, fmt.Errorf("compose: node %s names model %q but no resolver is available", ns.Name, ns.Model)
			}
			var err error
			if m, db, err = resolve(ns.Model); err != nil {
				return nil, fmt.Errorf("compose: node %s: %w", ns.Name, err)
			}
		} else {
			var err error
			if m, err = core.ParseProgram(ns.Src); err != nil {
				return nil, fmt.Errorf("compose: node %s: %w", ns.Name, err)
			}
			db = relation.NewInstance()
		}
		if ns.DB != nil {
			db = ns.DB
		}
		if db == nil {
			db = relation.NewInstance()
		}
		if err := n.AddNode(ns.Name, m, db.Clone()); err != nil {
			return nil, err
		}
	}
	for _, ws := range s.Wires {
		if err := n.Connect(ws.From, ws.Output, ws.To, ws.Input); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// Clone deep-copies the spec (databases included), so a stored spec cannot
// alias a caller's instance.
func (s *Spec) Clone() *Spec {
	if s == nil {
		return nil
	}
	c := &Spec{Nodes: make([]NodeSpec, len(s.Nodes)), Wires: append([]WireSpec(nil), s.Wires...)}
	for i, ns := range s.Nodes {
		c.Nodes[i] = ns
		if ns.DB != nil {
			c.Nodes[i].DB = ns.DB.Clone()
		}
	}
	return c
}
