// Package exp is what a sweep leaves on disk and shows on the terminal:
// the artifact Store (one crash-safe, checksummed JSON document per
// simulated scenario, keyed by Fingerprint, plus the resumable
// manifest), the Progress line, and SweepOpts, which plugs both into
// the one sweep executor — internal/core's funnel (core.Opts). The
// package executes nothing itself and starts no goroutine: panics
// become *par.PanicError in the pool, a failed run aborts the sweep with
// its error, and what finished before that is already in the store.
package exp

import (
	"log"

	"repro/internal/core"
)

// SweepOpts completes o the way every CLI sweep runs. The caller sets
// the plain fields (Ctx, Check, Telemetry, Spans); SweepOpts turns the
// -jobs value into the pool size (0 = one worker per CPU), declares the
// sweep's total simulations (0 = unknown) to the span tracker and the
// store's manifest, and attaches the -out store st and the progress
// line p — either may be nil. Every completed run is counted by p;
// fresh ones are persisted, with a failed save logged rather than
// aborting the sweep, and a corrupt artifact found on lookup is counted
// by o.Spans as well as quarantined.
func SweepOpts(o core.Opts, jobs, total int, st *Store, p *Progress) core.Opts {
	o.Workers = jobs
	if jobs <= 0 {
		o.Workers = core.WorkersAll
	}
	o.Spans.AddTotal(total)
	save := func(core.Scenario, *core.Result, bool) {}
	if st != nil {
		st.Expect(total)
		st.OnCorrupt(o.Spans.CorruptArtifact)
		o.Lookup = st.Lookup
		save = st.SaveResult(func(err error) { log.Print(err) })
	}
	o.OnResult = func(s core.Scenario, r *core.Result, cached bool) {
		save(s, r, cached)
		p.Observe(r.Events, cached)
	}
	return o
}
