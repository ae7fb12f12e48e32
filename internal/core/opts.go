package core

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/check"
	"repro/internal/par"
	"repro/internal/telemetry"
)

// Opts configures how a sweep driver executes its independent
// simulations. The zero value runs serially with no hooks.
//
// Determinism guarantee: a sweep's outcome depends only on its
// scenarios, never on Workers. Runs execute concurrently, but results
// are collected in submission order and every reduction (aggregation,
// pairing, improvement factors) happens serially afterwards, so
// Workers=4 produces bit-identical output to Workers=1.
type Opts struct {
	// Ctx cancels the sweep between simulations; nil means Background.
	// A cancelled sweep returns ctx.Err() (individual simulations are
	// not interruptible mid-run).
	Ctx context.Context
	// Workers is the simulation worker-pool size: 0 (the zero value)
	// and 1 run serially, larger values fan independent runs out
	// across goroutines, and WorkersAll (negative) uses one worker per
	// CPU.
	Workers int
	// Lookup, when non-nil, is consulted before each simulation; a hit
	// substitutes the returned Result and skips the run entirely
	// (artifact-based resume; see internal/exp's Store).
	Lookup func(Scenario) (*Result, bool)
	// OnResult, when non-nil, observes every completed run: fresh runs
	// and Lookup hits alike (cached reports which). Calls are
	// serialized by the driver but arrive in completion order, not
	// submission order.
	OnResult func(s Scenario, r *Result, cached bool)
	// Check runs every fresh simulation under the runtime invariant
	// checker (internal/check) at its default configuration; a run with
	// violations fails the sweep. Checking does not perturb
	// trajectories, so results stay bit-identical to an unchecked
	// sweep.
	Check bool
	// Telemetry, when non-nil, attaches one hub reader per fresh run
	// (cache hits have no event stream) and folds finished runs into the
	// hub's cross-run aggregates. Readers only read the bus's table, so
	// a telemetry-on sweep produces bit-identical results to a
	// telemetry-off one.
	Telemetry *telemetry.Hub
	// Spans, when non-nil, records an orchestration span per run (begin
	// on worker pickup, end with event count / cache flag / error) for
	// the run report's sweep statistics.
	Spans *telemetry.Tracker
}

// WorkersAll requests one worker per available CPU (the pool resolves
// it via runtime.GOMAXPROCS).
const WorkersAll = -1

// workers returns the effective pool size: the zero Opts value means
// serial (matching the historical drivers), negative means all CPUs.
func (o *Opts) workers() int {
	switch {
	case o.Workers < 0:
		return 0 // par.Map resolves 0 to GOMAXPROCS
	case o.Workers == 0:
		return 1
	}
	return o.Workers
}

// runBatch is the single execution funnel of every sweep driver: the
// pool loop with spans, artifact lookup and the result hook around
// runOne, returning results in submission order.
func runBatch(o Opts, scenarios []Scenario) ([]*Result, error) {
	var mu sync.Mutex
	return par.MapWorker(o.Ctx, o.workers(), len(scenarios), func(worker, i int) (*Result, error) {
		s := scenarios[i]
		span := o.Spans.Begin(s.Name, worker)
		// The pool turns a panic into a *par.PanicError above this
		// frame; close the span on the way there or the tracker counts
		// the run active forever.
		defer func() {
			if v := recover(); v != nil {
				o.Spans.End(span, 0, false, fmt.Sprint("panic: ", v))
				panic(v)
			}
		}()
		var r *Result
		cached := false
		if o.Lookup != nil {
			r, cached = o.Lookup(s)
		}
		if !cached {
			var err error
			if r, err = o.runOne(s); err != nil {
				o.Spans.End(span, 0, false, err.Error())
				return nil, err
			}
		}
		o.Spans.End(span, r.Events, cached, "")
		if o.OnResult != nil {
			mu.Lock()
			o.OnResult(s, r, cached)
			mu.Unlock()
		}
		return r, nil
	})
}

// runOne builds, instruments, executes and reports one fresh scenario:
// a hub reader when the sweep carries a hub, the invariant
// checker when Check is set. With neither no bus is created and it is
// exactly Run. A run with violations returns its result alongside the
// error.
func (o *Opts) runOne(s Scenario) (*Result, error) {
	in, err := Build(s)
	if err != nil {
		return nil, err
	}
	finish := func() {}
	if o.Telemetry != nil {
		finish = o.Telemetry.StartRun(in.bus())
	}
	var ck *check.Checker
	if o.Check {
		ck = in.Check(CheckOpts{})
	}
	r := in.Execute()
	finish()
	if ck != nil {
		return r, ck.Report().Err()
	}
	return r, nil
}
