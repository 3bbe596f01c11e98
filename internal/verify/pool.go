package verify

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/fol"
	"repro/internal/sat"
)

// This file is the parallel verification engine: every decision procedure in
// the package reduces to a list of independent Bernays–Schönfinkel
// subproblems (one per condition, clause, run length, or candidate), and the
// helpers here fan that list out across Options.Parallelism workers with
// first-witness-wins early termination and context cancellation.
//
// Determinism policy (see DESIGN.md §3.4): the DECISION of every procedure
// is identical under any parallelism, because satisfiability of the
// subproblem list is order-independent. The WITNESS may differ from the
// sequential one — sequential evaluation returns the first satisfiable
// subproblem in declaration order, parallel evaluation returns whichever
// worker finds one first. Replay checks validate either.

// workers resolves Options.Parallelism to a worker count.
func (o *Options) workers() int {
	switch {
	case o.Parallelism < 0:
		return runtime.GOMAXPROCS(0)
	case o.Parallelism == 0:
		return 1
	}
	return o.Parallelism
}

// unit is one independent subproblem of a decision procedure. run returns
// (result, found, err): found reports a witness/counterexample; a false
// found with nil err means the subproblem is conclusively negative (unsat).
type unit[T any] struct {
	run func(ctx context.Context) (T, bool, error)
}

// searchFirst evaluates the units and returns the first found result, if
// any. With one worker the units run strictly sequentially in order,
// stopping at the first found result or error — the exact pre-parallel
// behavior. With more workers the units are pulled from a shared queue; the
// first found result cancels the remaining work.
//
// Error policy: a found witness wins over errors in sibling units (a
// sequential run with a different unit order could also have found it
// before erroring); if no unit finds anything and some erred, the
// lowest-indexed error is returned so runs are reproducible.
func searchFirst[T any](ctx context.Context, workers int, units []unit[T]) (T, bool, error) {
	var zero T
	if workers <= 1 || len(units) <= 1 {
		for _, u := range units {
			if err := ctx.Err(); err != nil {
				return zero, false, err
			}
			v, found, err := u.run(ctx)
			if err != nil {
				return zero, false, err
			}
			if found {
				return v, true, nil
			}
		}
		return zero, false, nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	if workers > len(units) {
		workers = len(units)
	}
	type outcome struct {
		val   T
		found bool
		err   error
		done  bool
	}
	outs := make([]outcome, len(units))
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= len(units) || ctx.Err() != nil {
					return
				}
				v, found, err := units[i].run(ctx)
				outs[i] = outcome{val: v, found: found, err: err, done: true}
				if found {
					cancel() // first witness wins: stop the other workers
				}
			}
		}()
	}
	wg.Wait()

	for _, o := range outs {
		if o.done && o.found {
			return o.val, true, nil
		}
	}
	for _, o := range outs {
		if o.done && o.err != nil {
			return zero, false, o.err
		}
	}
	// All completed units were conclusively negative. A live context here
	// means every unit ran (our own cancel only fires on a found witness,
	// which returned above); a dead one means the parent died mid-run and
	// some units were skipped, so no negative verdict can be claimed.
	if err := ctx.Err(); err != nil {
		return zero, false, err
	}
	return zero, false, nil
}

// forEach evaluates n independent subproblems, all of which must complete
// (no early termination on success — used by batch APIs where every
// candidate needs an answer). The first error cancels the remaining work
// and is returned; results are positionally aligned with the inputs.
func forEach[T any](ctx context.Context, workers int, n int, run func(ctx context.Context, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			v, err := run(ctx, i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n || ctx.Err() != nil {
					return
				}
				v, err := run(ctx, i)
				if err != nil {
					errs[i] = err
					cancel()
					return
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// solveSub grounds and solves one subproblem, consulting the memo cache and
// mapping an Unknown status to the cause: context cancellation when the
// call's context died, ErrBudget otherwise. Every decision procedure's
// units go through here.
func solveSub(ctx context.Context, opts *Options, p *fol.Problem) (*fol.Result, error) {
	p.MaxConflicts = opts.MaxConflicts
	p.Context = ctx
	var key string
	if opts.Cache != nil {
		key = problemKey(p)
		if res, ok := opts.Cache.lookup(key); ok {
			// A hit grounds and searches nothing: report no solver time.
			hit := *res
			hit.GroundTime, hit.SolveTime, hit.Decisions, hit.Conflicts = 0, 0, 0, 0
			return &hit, nil
		}
	}
	res, err := fol.Solve(p)
	if err != nil {
		return nil, err
	}
	if res.Status == sat.Unknown {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		return nil, ErrBudget
	}
	if opts.Cache != nil {
		opts.Cache.store(key, res)
	}
	return res, nil
}
