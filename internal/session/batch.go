package session

import (
	"sync"
	"time"

	"repro/internal/relation"
)

// The batched input path. A client hands the engine a group of
// (session, input, key) steps spanning any number of sessions; the engine
// splits the group by owning shard and runs each shard's share under ONE
// hold of that shard's lock, so the whole share lands in one group-commit
// batch — one shared fsync acknowledges every step in it. Each item passes the same
// admit as a single step (plus dedupe against keys earlier in its own
// group), fails without failing its neighbors, and a session's admitted
// steps travel in one record, so the WAL is never torn mid-group.

// BatchItem is one step of a batched input request.
type BatchItem struct {
	Session string            `json:"session"`
	Key     string            `json:"key,omitempty"`
	Input   relation.Instance `json:"input"`
}

// BatchResult is the outcome of one batch item: exactly one of Result and
// Err is set. Errors are the same typed errors the single-step path
// returns (NotFoundError, BadInputError, RateLimitedError, ...), so the
// HTTP layer maps them to the same per-item status codes.
type BatchResult struct {
	Result *StepResult
	Err    error
}

// InputBatch applies a group of steps across any number of sessions and
// returns one result per item, positionally. Items of one session apply
// in the order given; items of different sessions owned by one shard share
// a single WAL commit; shards proceed concurrently. A shard-level failure
// (overloaded shard, engine shutdown, WAL write error) fails every item
// routed to that shard — partial failure is otherwise strictly per-item.
func (e *Engine) InputBatch(items []BatchItem) []BatchResult {
	out := make([]BatchResult, len(items))
	if len(items) == 0 {
		return out
	}
	start := time.Now()
	// Group item indexes by owning shard, preserving arrival order.
	byShard := make(map[*shard][]int)
	var order []*shard
	for i := range items {
		sh := e.shardFor(items[i].Session)
		if _, ok := byShard[sh]; !ok {
			order = append(order, sh)
		}
		byShard[sh] = append(byShard[sh], i)
	}
	run := func(sh *shard, idxs []int) {
		// One call per shard: the whole share runs under one hold of the
		// shard's lock and its appends commit in one group commit.
		_, err := sh.run(false, func(sh *shard) (any, error) {
			sh.inputBatch(idxs, items, out)
			return nil, nil
		})
		if err != nil {
			for _, i := range idxs {
				out[i] = BatchResult{Err: err}
			}
		}
	}
	// The caller runs the first shard's share itself and starts a goroutine
	// for each further shard.
	var wg sync.WaitGroup
	for _, sh := range order[1:] {
		wg.Add(1)
		go func(sh *shard, idxs []int) {
			defer wg.Done()
			run(sh, idxs)
		}(sh, byShard[sh])
	}
	run(order[0], byShard[order[0]])
	wg.Wait()
	e.m.stepLatency.Observe(int64(time.Since(start)))
	return out
}

// inputBatch runs under the shard's lock: it partitions the shard's
// share of the batch by session (preserving item order) and proposes each
// session's group as one record. Per-item outcomes land in out.
func (sh *shard) inputBatch(idxs []int, items []BatchItem, out []BatchResult) {
	groups := make(map[string][]int)
	var order []string
	for _, i := range idxs {
		id := items[i].Session
		if _, ok := groups[id]; !ok {
			order = append(order, id)
		}
		groups[id] = append(groups[id], i)
	}
	for _, id := range order {
		sh.stepGroup(id, groups[id], items, out)
	}
}

// stepGroup admits one session's items and proposes the admitted steps as
// one record — recStep for a single step (so a batch of one is
// byte-identical to the unbatched path), recBatch otherwise. The record
// commits whole or its group is refused whole.
func (sh *shard) stepGroup(id string, idxs []int, items []BatchItem, out []BatchResult) {
	// pendingDup marks an item whose key repeats an EARLIER item of this
	// group: its duplicate answer can only be built after that step applies.
	type pendingDup struct{ idx, seq int }
	var (
		s         *Session
		admitted  []int
		dups      []pendingDup
		groupKeys map[string]int // key → seq assigned earlier in this group
	)
	for _, i := range idxs {
		it := &items[i]
		if seq, ok := groupKeys[it.Key]; ok {
			sh.m.dedupedSteps.Add(1)
			dups = append(dups, pendingDup{idx: i, seq: seq})
			continue
		}
		adm, dup, err := sh.admit(id, it.Key, false, it.Input, nil)
		if err != nil || dup != nil {
			out[i] = BatchResult{Result: dup, Err: err}
			continue
		}
		s = adm
		if it.Key != "" {
			if groupKeys == nil {
				groupKeys = make(map[string]int)
			}
			groupKeys[it.Key] = s.steps + 1 + len(admitted)
		}
		admitted = append(admitted, i)
	}
	if len(admitted) == 0 {
		return
	}
	var one [1]*StepResult // a group of one allocates no result slice
	results := one[:]
	first := &items[admitted[0]]
	rec := &walRecord{T: recStep, SID: id, Seq: s.steps + 1, Input: first.Input, Key: first.Key}
	if len(admitted) > 1 {
		results = make([]*StepResult, len(admitted))
		rec = &walRecord{T: recBatch, SID: id, Seq: s.steps + 1,
			Inputs: make(relation.Sequence, len(admitted)), Keys: make([]string, len(admitted))}
		for n, i := range admitted {
			rec.Inputs[n], rec.Keys[n] = items[i].Input, items[i].Key
		}
	}
	if err := sh.commit(rec, fromAPI, nil, results); err != nil {
		for _, i := range admitted {
			out[i] = BatchResult{Err: err}
		}
		for _, d := range dups {
			out[d.idx] = BatchResult{Err: err}
		}
		return
	}
	for n, i := range admitted {
		out[i] = BatchResult{Result: results[n]}
	}
	for _, d := range dups {
		out[d.idx] = BatchResult{Result: s.dupResult(d.seq)}
	}
}
