package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"strconv"

	"repro/internal/models"
	"repro/internal/relation"
	"repro/internal/session"
)

// The seeded generator. Everything the program under test receives comes
// from here, and everything here is a pure function of (workload, seed,
// size): session visit order, client assignment, catalogue order, customer
// profiles and which steps carry reads. The engine never sees the seed.

// shopModels is the SHORT family: the registry models over the
// price/available catalogue database.
var shopModels = map[string]bool{
	"short": true, "friendly": true, "restricted": true, "guarded": true,
	"payfirst": true, "strict": true, "stricter": true,
}

// catalogue is a priced, available product list in seeded order.
type catalogue struct {
	items  []relation.Const
	prices []relation.Const
	db     relation.Instance
}

func newCatalogue(rng *rand.Rand, n int) *catalogue {
	c := &catalogue{db: relation.NewInstance()}
	for _, p := range rng.Perm(n) {
		item := relation.Const(fmt.Sprintf("item-%04d", p))
		price := relation.Const(strconv.Itoa(100 + p))
		c.items = append(c.items, item)
		c.prices = append(c.prices, price)
		c.db.Add("price", relation.Tuple{item, price})
		c.db.Add("available", relation.Tuple{item})
	}
	return c
}

// inputPool shares one Instance among all steps that carry the same single
// fact. The engine treats inputs as read-only (it clones before retaining),
// so the load generator can hand the same value to many sessions; this
// keeps the generator's own heap out of live_heap_mb.
type inputPool map[string]relation.Instance

func (p inputPool) fact(rel string, args ...relation.Const) relation.Instance {
	t := relation.Tuple(args)
	key := rel + "\x00" + t.Key()
	if in, ok := p[key]; ok {
		return in
	}
	in := relation.NewInstance()
	in.Ensure(rel, len(t)).Add(t)
	p[key] = in
	return in
}

// sess is one generated session: its identity, what it is opened with, and
// its whole input script (step j is inputs[j]).
type sess struct {
	id     string
	model  string
	db     relation.Instance
	client int
	inputs []relation.Instance
	// next is the script cursor used while the op stream is laid out.
	next int
	// acked counts the steps acknowledged so far; failed lists script
	// positions whose step was attempted but not acked (the oracle replays
	// the script without them). Both belong to the session's client.
	acked  int
	failed []int
}

// script returns step j of a session of the given model. off is the
// seeded position the session starts walking the catalogue from; uniq tags the session so
// auction lots are unique across the run.
func script(pool inputPool, model string, cat *catalogue, off, uniq int) func(j int) relation.Instance {
	n := len(cat.items)
	shop := func(j int) relation.Instance {
		p := (off + j/2) % n
		if j%2 == 0 {
			return pool.fact("order", cat.items[p])
		}
		return pool.fact("pay", cat.items[p], cat.prices[p])
	}
	switch model {
	case "short", "restricted", "strict", "stricter":
		return shop
	case "friendly":
		return func(j int) relation.Instance {
			if j%5 == 4 {
				return pool.fact("pending-bills")
			}
			return shop(j)
		}
	case "guarded", "payfirst":
		return func(j int) relation.Instance {
			if j%7 == 6 {
				return pool.fact("cancel", cat.items[(off+j/2+n-1)%n])
			}
			return shop(j)
		}
	case "abstar":
		return func(j int) relation.Instance {
			if j == 0 {
				return pool.fact("ia")
			}
			return pool.fact("ib")
		}
	case "auction":
		bidders := []relation.Const{"alice", "bob"}
		return func(j int) relation.Instance {
			lot := relation.Const(fmt.Sprintf("lot-%d-%d", uniq, j/3))
			b := bidders[(off+j/3)%2]
			switch j % 3 {
			case 0:
				return pool.fact("list", lot)
			case 1:
				return pool.fact("bid", lot, b)
			}
			return pool.fact("accept", lot, b)
		}
	case "subscription":
		rates := [][2]relation.Const{{"economist", "120"}, {"nature", "199"}}
		return func(j int) relation.Instance {
			r := rates[(off+j/4)%2]
			switch j % 4 {
			case 0:
				return pool.fact("subscribe", r[0])
			case 1:
				return pool.fact("remit", r[0], r[1])
			case 2:
				return pool.fact("remind")
			}
			return pool.fact("cancel", r[0])
		}
	}
	panic("benchmark: no script for model " + model)
}

// modelDB is the database a session of the model is opened with.
func modelDB(model string, cat *catalogue) relation.Instance {
	if shopModels[model] {
		return cat.db
	}
	return models.DefaultDB(model)
}

// opKind names what one client operation does.
type opKind uint8

const (
	opStep   opKind = iota // one single step
	opBatch                // one 64-item keyed batch
	opLog                  // one full log read
	opVerify               // one Peek + Goal
	nOpKinds
)

// op is one pre-generated client operation.
type op struct {
	kind opKind
	s    int32 // session index (step, log, verify)
	j    int32 // script position (step)
	// batch items, positionally: sessions and script positions.
	bs, bj []int32
	// In-process payloads.
	in    relation.Instance
	items []session.BatchItem
	// HTTP payloads, pre-encoded in set-up.
	url  string
	body []byte
}

func (o *op) steps() int {
	switch o.kind {
	case opStep:
		return 1
	case opBatch:
		return len(o.bs)
	}
	return 0
}

// plan is a workload's generated input: sessions and per-client op streams.
type plan struct {
	sessions []*sess
	ops      [][]op // per client
	steps    int    // steps carried by all ops
}

func (p *plan) nOps() int {
	n := 0
	for _, ops := range p.ops {
		n += len(ops)
	}
	return n
}

// digest is a hash of the whole operation stream: op kinds, sessions,
// script positions and input facts, per client in issue order. Two plans
// with equal digests offer the program byte-identical stimulus.
func (p *plan) digest() string {
	h := sha256.New()
	for _, s := range p.sessions {
		fmt.Fprintf(h, "S %s %s %d %d\n", s.id, s.model, s.client, len(s.inputs))
	}
	put := func(s, j int32) {
		fmt.Fprintf(h, " %d/%d:%s", s, j, p.sessions[s].inputs[j].String())
	}
	for c, ops := range p.ops {
		fmt.Fprintf(h, "C %d\n", c)
		for i := range ops {
			o := &ops[i]
			fmt.Fprintf(h, "%d", o.kind)
			switch o.kind {
			case opStep:
				put(o.s, o.j)
			case opBatch:
				for k := range o.bs {
					put(o.bs[k], o.bj[k])
				}
			default:
				fmt.Fprintf(h, " %d", o.s)
			}
			h.Write([]byte{'\n'})
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// split deals the sessions named by idx to clients in seeded order, adding
// to by, so each session is driven by exactly one client and its steps stay
// in script order.
func split(rng *rand.Rand, sessions []*sess, idx []int32, by [][]int32) {
	for k, at := range rng.Perm(len(idx)) {
		c := k % len(by)
		sessions[idx[at]].client = c
		by[c] = append(by[c], idx[at])
	}
}

// splitAll deals every session to one of the clients.
func splitAll(rng *rand.Rand, sessions []*sess) [][]int32 {
	idx := make([]int32, len(sessions))
	for i := range idx {
		idx[i] = int32(i)
	}
	by := make([][]int32, clients)
	split(rng, sessions, idx, by)
	return by
}

// take consumes the session's next script position.
func (s *sess) take() int32 {
	j := s.next
	s.next++
	return int32(j)
}

// stepOp builds the single-step op for session i's next script position.
func (p *plan) stepOp(i int32) op {
	s := p.sessions[i]
	j := s.take()
	return op{kind: opStep, s: i, j: j, in: s.inputs[j]}
}

// roundsOfSingles lays out, per client, rounds that visit every session of
// the client once in a freshly shuffled order — the single-step workloads.
// extra, when set, may append a read op after a step.
func (p *plan) roundsOfSingles(rng *rand.Rand, by [][]int32, rounds int, extra func(i, j int32) (op, bool)) {
	p.ops = make([][]op, len(by))
	for c, mine := range by {
		order := append([]int32(nil), mine...)
		for r := 0; r < rounds; r++ {
			rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
			for _, i := range order {
				o := p.stepOp(i)
				p.ops[c] = append(p.ops[c], o)
				if extra != nil {
					if x, ok := extra(i, o.j); ok {
						p.ops[c] = append(p.ops[c], x)
					}
				}
			}
		}
	}
}

// batchSize is the batched workloads' call: 64 keyed items over 64 distinct
// sessions.
const batchSize = 64

// batchCycles lays out, per client, the batched workloads' cycle: a keyed
// batch over the next 64 sessions of a seeded cyclic order, then `singles`
// single steps on seeded picks among them. Every item takes its session's
// next script position, so per-session order is the script's.
func (p *plan) batchCycles(rng *rand.Rand, by [][]int32, stepsPerClient, singles int) {
	p.ops = make([][]op, len(by))
	for c, mine := range by {
		order := append([]int32(nil), mine...)
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		at, done := 0, 0
		for done < stepsPerClient {
			o := op{kind: opBatch}
			for k := 0; k < batchSize; k++ {
				i := order[at%len(order)]
				at++
				o.bs = append(o.bs, i)
				o.bj = append(o.bj, p.sessions[i].take())
			}
			p.ops[c] = append(p.ops[c], o)
			done += batchSize
			for k := 0; k < singles; k++ {
				p.ops[c] = append(p.ops[c], p.stepOp(o.bs[rng.Intn(batchSize)]))
				done++
			}
		}
	}
}

// finish trims every script to what the op stream consumed, fills the
// in-process batch payloads, and totals the steps.
func (p *plan) finish() {
	for _, s := range p.sessions {
		s.inputs = s.inputs[:s.next]
	}
	for c := range p.ops {
		for i := range p.ops[c] {
			o := &p.ops[c][i]
			p.steps += o.steps()
			if o.kind != opBatch {
				continue
			}
			o.items = make([]session.BatchItem, len(o.bs))
			for k := range o.bs {
				s := p.sessions[o.bs[k]]
				o.items[k] = session.BatchItem{Session: s.id, Key: stepKey(o.bj[k]), Input: s.inputs[o.bj[k]]}
			}
		}
	}
}

// stepKey is the idempotency key of a session's script position (keys are
// scoped per session, so the position alone is unique).
func stepKey(j int32) string { return "k" + strconv.Itoa(int(j)) }

// mixedSessions generates n sessions over an even mix of the given models,
// all on one small catalogue, each with a script of `steps` positions.
func mixedSessions(rng *rand.Rand, pool inputPool, prefix string, mix []string, n, steps, catSize int) []*sess {
	cat := newCatalogue(rng, catSize)
	out := make([]*sess, n)
	for i := range out {
		model := mix[i%len(mix)]
		s := &sess{id: fmt.Sprintf("%s-%05d", prefix, i), model: model, db: modelDB(model, cat)}
		f := script(pool, model, cat, rng.Intn(catSize), i)
		s.inputs = make([]relation.Instance, steps)
		for j := range s.inputs {
			s.inputs[j] = f(j)
		}
		out[i] = s
	}
	return out
}

// genWide is wide_mem (and the session population of the batched
// workloads): an even mix of the ten registry models on a 12-item
// catalogue.
func genWide(seed int64, sessions, stepsPer int) *plan {
	rng := rand.New(rand.NewSource(seed))
	p := &plan{sessions: mixedSessions(rng, inputPool{}, "w", models.Names(), sessions, stepsPer, 12)}
	p.roundsOfSingles(rng, splitAll(rng, p.sessions), stepsPer, nil)
	p.finish()
	return p
}

// genBatched is durable_batch and cluster_http: the wide_mem population
// driven in batch cycles. Scripts are over-provisioned because the seeded
// single picks advance some sessions further than others.
func genBatched(seed int64, prefix string, sessions, stepsPer, singles int) *plan {
	rng := rand.New(rand.NewSource(seed))
	p := &plan{sessions: mixedSessions(rng, inputPool{}, prefix, models.Names(), sessions, 2*stepsPer+16, 12)}
	p.batchCycles(rng, splitAll(rng, p.sessions), sessions*stepsPer/clients, singles)
	p.finish()
	return p
}

// genDeep is deep_state: 4 auction sessions whose every lot is new and 4
// short sessions walking a 4096-item catalogue in seeded order, so state
// and history grow for the whole run; a full log read follows every 64th
// step of a session. ids are chosen so both engine shards own two sessions
// of each model (placement is by ID hash, not by seed).
func genDeep(seed int64, stepsPer, logEvery int) *plan {
	rng := rand.New(rand.NewSource(seed))
	pool := inputPool{}
	cat := newCatalogue(rng, 4096)
	p := &plan{}
	by := make([][]int32, clients)
	for _, model := range []string{"auction", "short"} {
		onShard := make([][]int32, shards)
		for n, picked := 0, 0; picked < 4; n++ {
			id := fmt.Sprintf("deep-%s-%d", model, n)
			sh := session.ShardOf(id, shards)
			if len(onShard[sh]) == 4/shards {
				continue
			}
			picked++
			s := &sess{id: id, model: model, db: modelDB(model, cat)}
			f := script(pool, model, cat, rng.Intn(4096), len(p.sessions))
			s.inputs = make([]relation.Instance, stepsPer)
			for j := range s.inputs {
				s.inputs[j] = f(j)
			}
			onShard[sh] = append(onShard[sh], int32(len(p.sessions)))
			p.sessions = append(p.sessions, s)
		}
		// Deal each model's sessions on each shard separately, so every
		// client drives one session of each model on each shard whatever
		// the seed: with 8 sessions, which client meets which shard would
		// otherwise decide how often the two collide.
		for _, group := range onShard {
			split(rng, p.sessions, group, by)
		}
	}
	p.roundsOfSingles(rng, by, stepsPer, func(i, j int32) (op, bool) {
		return op{kind: opLog, s: i}, (int(j)+1)%logEvery == 0
	})
	p.finish()
	return p
}

// verifyModels are the SHORT-family models verify_mix draws sessions from.
var verifyModels = []string{"short", "friendly", "guarded", "strict"}

// genVerify is verify_mix: sessions of four SHORT-family models whose
// scripts come from a small set of seeded customer profiles, so the
// cumulated prefix of one session recurs in others of the same model. A
// profile is a customer's interest — a few catalogue items — shopped in a
// seeded order with revisits, which keeps the reachable prefixes few. A
// Peek+Goal read follows every readEvery-th step, at a seeded phase per
// session.
func genVerify(seed int64, sessions, stepsPer, profiles, readEvery int) *plan {
	rng := rand.New(rand.NewSource(seed))
	pool := inputPool{}
	cat := newCatalogue(rng, 12)
	type profile [][2]int // (item, 0 order | 1 pay) per step
	profs := make([]profile, profiles)
	for k := range profs {
		interest := rng.Perm(12)[:3+k%4]
		// The customer works through the interest list, ordering then
		// paying, with seeded revisits of items already bought.
		var seq profile
		for len(seq) < stepsPer {
			bought := 1 + len(seq)*len(interest)/stepsPer
			if bought > len(interest) {
				bought = len(interest)
			}
			it := interest[rng.Intn(bought)]
			seq = append(seq, [2]int{it, 0}, [2]int{it, 1})
		}
		profs[k] = seq[:stepsPer]
	}
	p := &plan{sessions: make([]*sess, sessions)}
	phase := make([]int, sessions)
	for i := range p.sessions {
		model := verifyModels[i%len(verifyModels)]
		pr := profs[(i/len(verifyModels))%profiles]
		s := &sess{id: fmt.Sprintf("v-%05d", i), model: model, db: cat.db, inputs: make([]relation.Instance, stepsPer)}
		for j, st := range pr {
			if st[1] == 0 {
				s.inputs[j] = pool.fact("order", cat.items[st[0]])
			} else {
				s.inputs[j] = pool.fact("pay", cat.items[st[0]], cat.prices[st[0]])
			}
		}
		p.sessions[i] = s
		phase[i] = rng.Intn(readEvery)
	}
	p.roundsOfSingles(rng, splitAll(rng, p.sessions), stepsPer, func(i, j int32) (op, bool) {
		return op{kind: opVerify, s: i}, (int(j)+phase[i])%readEvery == readEvery-1
	})
	p.finish()
	return p
}

// sample picks up to n session indexes in seeded order (all of them when
// there are no more than n), sorted for stable reporting.
func sample(seed int64, total, n int) []int {
	if total <= n {
		n = total
	}
	idx := rand.New(rand.NewSource(seed ^ 0x5eed)).Perm(total)[:n]
	sort.Ints(idx)
	return idx
}
