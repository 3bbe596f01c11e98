package session

import (
	"context"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/compose"
	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/relation"
)

// The system invariant, checked where it is kept: on every node that holds
// a session — the primary that acked its steps, a standby fed the primary's
// stream, an engine recovered from either one's directory — the session is
// the same function of the acked inputs. All three reach the session table
// through shard.commit, so one script through one checker covers the three
// record origins.

// ackedRun is the client's side of one open session: how it was opened and
// exactly the inputs that were acknowledged, each once.
type ackedRun struct {
	mach  *core.Machine // nil for a network session
	db    relation.Instance
	in    relation.Sequence
	spec  *compose.Spec // network sessions
	netIn []compose.StepInputs
}

func (r *ackedRun) steps() int { return len(r.in) + len(r.netIn) }

// sessionFacts is what must agree between nodes for one session. It extends
// what the benchmark's gate compares (step count and log) with the
// idempotency-key table, the validity verdict, and the verifiable past
// Peek hands the verification plane.
type sessionFacts struct {
	Steps  int
	Valid  bool
	Digest string
	Keys   map[string]int
	Past   string
}

// renderPast renders a past canonically; "none" is a machine that has no
// verifiable past (nil).
func renderPast(past relation.Instance) string {
	if past == nil {
		return "none"
	}
	return past.String()
}

// viewPast renders the past a View carries: the session's, or every network
// member's in name order.
func viewPast(v *View) string {
	if v.Nodes == nil {
		return renderPast(v.Past)
	}
	var parts []string
	for _, name := range sortedKeys(v.Nodes) {
		parts = append(parts, name+"="+renderPast(v.Nodes[name].Past))
	}
	return strings.Join(parts, " ")
}

// refPast is the reference past of a machine fed seq: the union of the
// inputs for a Spocus machine, none (nil) for any other kind.
func refPast(m *core.Machine, seq relation.Sequence) relation.Instance {
	if m.Kind() != core.KindSpocus {
		return nil
	}
	union := relation.NewInstance()
	for _, in := range seq {
		union.UnionWith(in)
	}
	return union
}

// tableOf reads an engine's whole session table, shard by shard, under the
// shard locks, then each session's past through Peek.
func tableOf(t testing.TB, e *Engine) map[string]sessionFacts {
	t.Helper()
	table := make(map[string]sessionFacts)
	for _, sh := range e.shards {
		_, err := sh.run(true, func(sh *shard) (any, error) {
			for id, s := range sh.sessions {
				table[id] = sessionFacts{Steps: s.steps, Valid: s.valid(), Digest: s.logDigest(), Keys: s.keys.all()}
			}
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for id, f := range table {
		v, err := e.Peek(id)
		if err != nil {
			t.Fatalf("peek %s: %v", id, err)
		}
		f.Past = viewPast(v)
		table[id] = f
	}
	return table
}

// checkInvariant asserts that every node holds exactly the ledger's
// sessions, that the nodes agree on each one's facts, and that each served
// log is the reference semantics (Machine.Execute, or raw compose stepping
// for a network) over the acked inputs — and the past each node hands the
// verification plane the union of those inputs (for a network member, of
// what the member consumed in the reference stepping).
func checkInvariant(t testing.TB, ledger map[string]*ackedRun, nodes map[string]*Engine) {
	t.Helper()
	want := make(map[string]string, len(ledger))     // id → reference log digest
	wantPast := make(map[string]string, len(ledger)) // id → reference past
	for id, run := range ledger {
		if run.mach != nil {
			ref, err := run.mach.Execute(run.db, run.in)
			if err != nil {
				t.Fatalf("oracle %s: %v", id, err)
			}
			want[id] = LogDigest(ref.Logs)
			wantPast[id] = viewPast(&View{Past: refPast(run.mach, run.in)})
			continue
		}
		nw, err := run.spec.Build(models.Resolve)
		if err != nil {
			t.Fatalf("oracle %s: %v", id, err)
		}
		nw.Start()
		var joint []JointLogEntry
		consumed := make(map[string]relation.Sequence)
		for _, ext := range run.netIn {
			js := nw.StepOnce(ext)
			joint = append(joint, JointLogEntry{Logs: js.Logs, Wire: js.Wire})
			for name, in := range js.Consumed {
				consumed[name] = append(consumed[name], in)
			}
		}
		want[id] = JointLogDigest(joint)
		ref := make(map[string]*NodeView)
		for _, name := range nw.Nodes() {
			ref[name] = &NodeView{Past: refPast(nw.Node(name).M, consumed[name])}
		}
		wantPast[id] = viewPast(&View{Nodes: ref})
	}
	var first string
	var firstTable map[string]sessionFacts
	for _, name := range sortedKeys(nodes) {
		table := tableOf(t, nodes[name])
		if got, wantIDs := sortedKeys(table), sortedKeys(ledger); !reflect.DeepEqual(got, wantIDs) {
			t.Fatalf("%s holds sessions %v, the ledger %v", name, got, wantIDs)
		}
		for id, f := range table {
			if f.Steps != ledger[id].steps() || f.Digest != want[id] {
				t.Errorf("%s/%s: %d steps digest %.12s, want %d acked steps digest %.12s",
					name, id, f.Steps, f.Digest, ledger[id].steps(), want[id])
			}
			if f.Past != wantPast[id] {
				t.Errorf("%s/%s: verifiable past %s, want %s", name, id, f.Past, wantPast[id])
			}
			// The digest is the node's own; the served log must carry it.
			lr, err := nodes[name].Log(id)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, id, err)
			}
			served := LogDigest(lr.Log)
			if ledger[id].mach == nil {
				served = JointLogDigest(lr.Joint)
			}
			if served != want[id] {
				t.Errorf("%s/%s: served log does not match the oracle", name, id)
			}
		}
		if firstTable == nil {
			first, firstTable = name, table
		} else if !reflect.DeepEqual(table, firstTable) {
			for id := range table {
				if !reflect.DeepEqual(table[id], firstTable[id]) {
					t.Errorf("%s and %s disagree on %s:\n %+v\n %+v", name, first, id, table[id], firstTable[id])
				}
			}
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// standbyTail is an in-process follower: it pulls the primary's stream
// shard by shard and hands every batch to the standby's one entry. With
// restarts set it drops a shard's decoder at random pulls, as a restarted
// follower process does: it keeps its applied position but has decoded
// nothing, so its next read starts cold in the middle of a segment.
type standbyTail struct {
	eng      *Engine
	from     []int64
	dec      []*ReplDecoder
	restarts *rand.Rand
}

func newStandbyTail(eng *Engine, primaryShards int) *standbyTail {
	tl := &standbyTail{eng: eng, from: make([]int64, primaryShards), dec: make([]*ReplDecoder, primaryShards)}
	for i := range tl.dec {
		tl.from[i], tl.dec[i] = 1, NewReplDecoder()
	}
	return tl
}

// pull catches the standby up with everything the primary has committed.
func (tl *standbyTail) pull(t testing.TB, primary *Engine) (resets int) {
	t.Helper()
	for sh := range tl.from {
		if tl.restarts != nil && tl.restarts.Intn(2) == 0 {
			tl.dec[sh] = NewReplDecoder()
		}
		for {
			b, err := primary.StreamWAL(context.Background(), sh, tl.from[sh], 0, tl.dec[sh].Pos())
			if err != nil {
				t.Fatalf("stream shard %d from %d: %v", sh, tl.from[sh], err)
			}
			applied, err := tl.eng.ApplyReplicated(tl.dec[sh], b)
			if err != nil {
				t.Fatalf("standby apply shard %d from %d: %v", sh, tl.from[sh], err)
			}
			if applied > 0 {
				tl.from[sh] = applied + 1
			}
			if b.Reset {
				resets++
			} else if len(b.Frames) == 0 {
				break
			}
		}
	}
	return resets
}

// copyTree copies a durability directory as a crash would leave it.
func copyTree(t testing.TB, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// recovered returns an engine started on a crash image of dir.
func recovered(t testing.TB, dir string, shards int) *Engine {
	t.Helper()
	img := t.TempDir()
	copyTree(t, dir, img)
	e, err := NewEngine(Config{Dir: img, Shards: shards, Fsync: FsyncNever, SnapshotEvery: -1})
	if err != nil {
		t.Fatalf("recover %s: %v", dir, err)
	}
	t.Cleanup(func() { e.Shutdown() })
	return e
}

// scriptRunner drives one seeded script against a primary, with a peer
// engine standing in for the other end of handoffs.
type scriptRunner struct {
	t       *testing.T
	rng     *rand.Rand
	primary *Engine
	peer    *Engine
	ledger  map[string]*ackedRun // sessions open on the primary
	away    map[string]*ackedRun // sessions handed off to the peer
	keys    map[string][]string  // keys each session has used
	nextID  int
	nextKey int
}

func (r *scriptRunner) pick(m map[string]*ackedRun, machineOnly bool) string {
	var ids []string
	for _, id := range sortedKeys(m) {
		if !machineOnly || m[id].mach != nil {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return ""
	}
	return ids[r.rng.Intn(len(ids))]
}

// randomInput draws a well-typed input over the machine's schema: any such
// input is a legal step (it may produce error facts; it still logs).
func (r *scriptRunner) randomInput(run *ackedRun) relation.Instance {
	pool := append(run.db.ActiveDomain(), "x", "y")
	in := relation.NewInstance()
	decls := run.mach.Schema().In
	for n := r.rng.Intn(3); n > 0; n-- {
		d := decls[r.rng.Intn(len(decls))]
		tup := make(relation.Tuple, d.Arity)
		for i := range tup {
			tup[i] = pool[r.rng.Intn(len(pool))]
		}
		in.Add(d.Name, tup)
	}
	return in
}

func (r *scriptRunner) randomNetInput() compose.StepInputs {
	ext := compose.StepInputs{}
	if r.rng.Intn(2) == 0 {
		in := relation.NewInstance()
		products := models.NetProducts()
		in.Add("want", relation.Tuple{relation.Const(products[r.rng.Intn(len(products))])})
		ext["customer"] = in
	}
	return ext
}

func (r *scriptRunner) open() {
	r.nextID++
	id := fmt.Sprintf("s%03d", r.nextID)
	run := &ackedRun{}
	req := &OpenRequest{ID: id}
	switch r.rng.Intn(4) {
	case 0:
		req.Src, req.DB = models.ShortSrc, models.MagazineDB()
		run.mach, run.db = models.Short(), models.MagazineDB()
	case 1:
		req.Network = goldenMarketSpec()
		run.spec = goldenMarketSpec()
	default:
		names := models.Names()
		req.Model = names[r.rng.Intn(len(names))]
		run.mach, run.db = models.Get(req.Model), models.DefaultDB(req.Model)
	}
	if _, err := r.primary.Open(req); err != nil {
		r.t.Fatalf("open %s: %v", id, err)
	}
	r.ledger[id] = run
}

// stepOn applies one step to id on e, sometimes keyed, and books the ack.
func (r *scriptRunner) stepOn(e *Engine, id string, run *ackedRun) {
	key := ""
	if r.rng.Intn(2) == 0 {
		r.nextKey++
		key = fmt.Sprintf("k%d", r.nextKey)
		r.keys[id] = append(r.keys[id], key)
	}
	if run.mach == nil {
		ext := r.randomNetInput()
		if _, err := e.NetInputKey(id, key, ext); err != nil {
			r.t.Fatalf("joint step %s: %v", id, err)
		}
		run.netIn = append(run.netIn, ext)
		return
	}
	in := r.randomInput(run)
	if _, err := e.InputKey(id, key, in); err != nil {
		r.t.Fatalf("step %s: %v", id, err)
	}
	run.in = append(run.in, in)
}

// deepen opens one more SHORT session and steps it on fresh constants for
// several snapshot intervals, so its state — resident in the step
// executor's form — is well past relation.Rel's linear storage when it is
// materialized into the primary's and the standby's snapshots, restored from
// them by recovery and by a stream reset, and stepped on again afterwards.
func (r *scriptRunner) deepen(steps int) {
	r.nextID++
	id := fmt.Sprintf("s%03d", r.nextID)
	if _, err := r.primary.Open(&OpenRequest{ID: id, Model: "short"}); err != nil {
		r.t.Fatalf("open %s: %v", id, err)
	}
	run := &ackedRun{mach: models.Short(), db: models.MagazineDB()}
	r.ledger[id] = run
	for j := 0; j < steps; j++ {
		item := relation.Const(fmt.Sprintf("%s-item-%d", id, j))
		in := relation.NewInstance()
		in.Add("order", relation.Tuple{item})
		in.Add("pay", relation.Tuple{item, "855"})
		if j%5 == 0 {
			in.Add("order", relation.Tuple{"time"})
		}
		if _, err := r.primary.Input(id, in); err != nil {
			r.t.Fatalf("step %s: %v", id, err)
		}
		run.in = append(run.in, in)
	}
}

// resend repeats a key the session has used: it must answer as a duplicate
// and apply nothing.
func (r *scriptRunner) resend(id string, run *ackedRun) {
	used := r.keys[id]
	if len(used) == 0 {
		return
	}
	key := used[r.rng.Intn(len(used))]
	var res *StepResult
	var err error
	if run.mach == nil {
		res, err = r.primary.NetInputKey(id, key, r.randomNetInput())
	} else {
		res, err = r.primary.InputKey(id, key, r.randomInput(run))
	}
	if err != nil || !res.Duplicate {
		r.t.Fatalf("resend %s/%s: %+v, %v — want a duplicate", id, key, res, err)
	}
}

// batch sends one InputBatch over several sessions: fresh keys, unkeyed
// items, a persisted key, a key repeated inside one session's group, a
// network session addressed as a machine and an unknown ID.
func (r *scriptRunner) batch() {
	var items []BatchItem
	expectDup := map[int]bool{}
	expectErr := map[int]bool{}
	for n := 2 + r.rng.Intn(6); n > 0; n-- {
		id := r.pick(r.ledger, true)
		if id == "" {
			return
		}
		it := BatchItem{Session: id, Input: r.randomInput(r.ledger[id])}
		switch r.rng.Intn(4) {
		case 0:
			r.nextKey++
			it.Key = fmt.Sprintf("k%d", r.nextKey)
			r.keys[id] = append(r.keys[id], it.Key)
			items = append(items, it)
			if r.rng.Intn(2) == 0 {
				// The same key again, later in the same group.
				expectDup[len(items)] = true
				items = append(items, BatchItem{Session: id, Key: it.Key, Input: r.randomInput(r.ledger[id])})
			}
			continue
		case 1:
			if used := r.keys[id]; len(used) > 0 {
				it.Key = used[r.rng.Intn(len(used))]
				expectDup[len(items)] = true
			}
		}
		items = append(items, it)
	}
	if id := r.pick(r.ledger, false); id != "" && r.ledger[id].mach == nil {
		expectErr[len(items)] = true
		items = append(items, BatchItem{Session: id, Input: relation.NewInstance()})
	}
	expectErr[len(items)] = true
	items = append(items, BatchItem{Session: "nobody", Input: relation.NewInstance()})
	for i, res := range r.primary.InputBatch(items) {
		switch {
		case expectErr[i]:
			if res.Err == nil {
				r.t.Fatalf("batch item %d (%s) succeeded, want an error", i, items[i].Session)
			}
		case res.Err != nil:
			r.t.Fatalf("batch item %d (%s): %v", i, items[i].Session, res.Err)
		case res.Result.Duplicate != expectDup[i]:
			r.t.Fatalf("batch item %d (%s key %q): duplicate=%v, want %v", i, items[i].Session, items[i].Key, res.Result.Duplicate, expectDup[i])
		case !res.Result.Duplicate:
			run := r.ledger[items[i].Session]
			run.in = append(run.in, items[i].Input)
			if res.Result.Seq != len(run.in) {
				r.t.Fatalf("batch item %d (%s): seq %d, want %d", i, items[i].Session, res.Result.Seq, len(run.in))
			}
		}
	}
}

// handoff moves id from one engine to the other the way the router does:
// export, install, forget.
func (r *scriptRunner) handoff(from, to *Engine, id string) {
	image, err := from.ExportState(id)
	if err != nil {
		r.t.Fatalf("export %s: %v", id, err)
	}
	if _, err := to.Install(image); err != nil {
		r.t.Fatalf("install %s: %v", id, err)
	}
	if err := from.Forget(id); err != nil {
		r.t.Fatalf("forget %s: %v", id, err)
	}
}

func (r *scriptRunner) op() {
	id := r.pick(r.ledger, false)
	switch k := r.rng.Intn(20); {
	case id == "" || (k < 2 && len(r.ledger) < 8):
		r.open()
	case k < 9:
		r.stepOn(r.primary, id, r.ledger[id])
	case k < 11:
		r.resend(id, r.ledger[id])
	case k < 15:
		r.batch()
	case k < 16:
		if _, err := r.primary.Close(id); err != nil {
			r.t.Fatalf("close %s: %v", id, err)
		}
		delete(r.ledger, id)
	case k < 18:
		r.handoff(r.primary, r.peer, id)
		r.away[id] = r.ledger[id]
		delete(r.ledger, id)
		if r.rng.Intn(2) == 0 {
			r.stepOn(r.peer, id, r.away[id])
		}
	default:
		if back := r.pick(r.away, false); back != "" {
			r.handoff(r.peer, r.primary, back)
			r.ledger[back] = r.away[back]
			delete(r.away, back)
		}
	}
}

// TestOneWriterProperty drives seeded random scripts through a durable
// primary with two standbys attached and checks the invariant across
// primary, standbys, and an engine recovered from each one's directory. The
// standbys are pulled at random points, so they meet the stream both record
// by record and, when a snapshot compacted what they had not read yet, as a
// reset. The second one's tailer also restarts at random pulls, so it reads
// from cold decoders mid-segment and across rotations.
func TestOneWriterProperty(t *testing.T) {
	var resets int
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			pdir, sdir := t.TempDir(), t.TempDir()
			primary, err := NewEngine(Config{Dir: pdir, Shards: 2, Fsync: FsyncNever, SnapshotEvery: 11})
			if err != nil {
				t.Fatal(err)
			}
			defer primary.Shutdown()
			standby, err := NewEngine(Config{Dir: sdir, Shards: 3, Fsync: FsyncNever, SnapshotEvery: 7})
			if err != nil {
				t.Fatal(err)
			}
			defer standby.Shutdown()
			s2dir := t.TempDir()
			standby2, err := NewEngine(Config{Dir: s2dir, Shards: 3, Fsync: FsyncNever, SnapshotEvery: 7})
			if err != nil {
				t.Fatal(err)
			}
			defer standby2.Shutdown()
			r := &scriptRunner{
				t: t, rng: rand.New(rand.NewSource(seed)), primary: primary, peer: memEngine(t, 1),
				ledger: map[string]*ackedRun{}, away: map[string]*ackedRun{}, keys: map[string][]string{},
			}
			tail := newStandbyTail(standby, 2)
			tail2 := newStandbyTail(standby2, 2)
			tail2.restarts = rand.New(rand.NewSource(-seed))
			for i := 1; i <= 240; i++ {
				r.op()
				deepened := i == 40
				if deepened {
					r.deepen(40)
				}
				if r.rng.Intn(12) == 0 {
					resets += tail.pull(t, primary)
					tail2.pull(t, primary)
				}
				if i%80 == 0 || deepened {
					resets += tail.pull(t, primary)
					tail2.pull(t, primary)
					checkInvariant(t, r.ledger, map[string]*Engine{
						"primary":                     primary,
						"standby":                     standby,
						"restarted standby":           standby2,
						"recovered primary":           recovered(t, pdir, 2),
						"recovered standby":           recovered(t, sdir, 3),
						"recovered restarted standby": recovered(t, s2dir, 3),
					})
					if t.Failed() {
						t.Fatalf("invariant broken after op %d", i)
					}
				}
			}
			if got := primary.Stats(); got.SessionsOpen != int64(len(r.ledger)) {
				t.Errorf("primary sessions_open = %d, want %d", got.SessionsOpen, len(r.ledger))
			}
			if got := standby.Stats(); got.SessionsOpen != int64(len(r.ledger)) {
				t.Errorf("standby sessions_open = %d, want %d", got.SessionsOpen, len(r.ledger))
			}
			if got := standby2.Stats(); got.SessionsOpen != int64(len(r.ledger)) {
				t.Errorf("restarted standby sessions_open = %d, want %d", got.SessionsOpen, len(r.ledger))
			}
		})
	}
	if resets == 0 {
		t.Error("no script met a reset batch: the standby's bootstrap path went untested")
	}
}

// shardIDs returns one session ID per shard of e.
func shardIDs(e *Engine) []string {
	ids := make([]string, e.Shards())
	for n, found := 0, 0; found < len(ids); n++ {
		id := fmt.Sprintf("fs%d", n)
		if sh := ShardOf(id, len(ids)); ids[sh] == "" {
			ids[sh] = id
			found++
		}
	}
	return ids
}

// TestFailStopOnBrokenWAL reaches the fail-stop discipline: once a shard's
// WAL refuses a write the shard refuses every later mutation, keeps
// answering reads, leaves the other shards alone, and a restart recovers
// exactly the steps that were acked.
func TestFailStopOnBrokenWAL(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Shards: 2, Fsync: FsyncAlways, SnapshotEvery: -1}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ids := shardIDs(e)
	broken, healthy := ids[0], ids[1]
	inputs := models.Fig1Inputs()
	for _, id := range ids {
		if _, err := e.Open(&OpenRequest{ID: id, Model: "short"}); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Input(id, inputs[0]); err != nil {
			t.Fatal(err)
		}
	}
	// The disk goes away under shard 0: its store is closed under the
	// shard's lock, which every toucher of the store holds.
	if _, err := e.shards[0].run(true, func(sh *shard) (any, error) { return nil, sh.store.Close() }); err != nil {
		t.Fatal(err)
	}

	wantFailed := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "shard 0 wal failed") {
			t.Fatalf("%s on the broken shard: %v, want the WAL-failed error", what, err)
		}
	}
	_, err = e.Input(broken, inputs[1])
	wantFailed("first step", err)
	_, err = e.InputKey(broken, "k", inputs[1])
	wantFailed("later step", err)
	res := e.InputBatch([]BatchItem{{Session: broken, Input: inputs[1]}, {Session: healthy, Input: inputs[1]}})
	wantFailed("batch item", res[0].Err)
	if res[1].Err != nil {
		t.Fatalf("batch item on the healthy shard: %v", res[1].Err)
	}
	_, err = e.Close(broken)
	wantFailed("close", err)

	if lr, err := e.Log(broken); err != nil || lr.Steps != 1 {
		t.Fatalf("Log on the broken shard: %+v, %v — want the 1 acked step", lr, err)
	}
	if info, err := e.Info(broken); err != nil || info.Steps != 1 {
		t.Fatalf("Info on the broken shard: %+v, %v", info, err)
	}
	if v, err := e.Peek(broken); err != nil || v.Steps != 1 {
		t.Fatalf("Peek on the broken shard: %+v, %v", v, err)
	}
	if _, err := e.Input(healthy, inputs[2]); err != nil {
		t.Fatalf("step on the healthy shard: %v", err)
	}
	if err := e.Shutdown(); err != nil {
		t.Fatal(err)
	}

	e2, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Shutdown()
	for id, acked := range map[string]relation.Sequence{broken: inputs[:1], healthy: inputs[:3]} {
		ref, err := models.Short().Execute(models.MagazineDB(), acked)
		if err != nil {
			t.Fatal(err)
		}
		lr, err := e2.Log(id)
		if err != nil {
			t.Fatal(err)
		}
		if lr.Steps != len(acked) || !lr.Log.Equal(ref.Logs) {
			t.Errorf("%s recovered with %d steps %s, want the %d acked %s", id, lr.Steps, lr.Log, len(acked), ref.Logs)
		}
	}
}
