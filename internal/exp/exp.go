// Package exp is what a sweep leaves on disk: the artifact Store (one
// crash-safe, checksummed JSON document per simulated scenario, keyed
// by Fingerprint), and SweepOpts, which plugs it into the one sweep
// executor — internal/core's funnel (core.Opts). The artifacts are the
// sweep's only on-disk record: an interrupted sweep leaves the runs it
// finished and nothing else, and a re-run over the same store skips
// them. What a sweep shows on the terminal is its span tracker's
// (telemetry.Tracker). The package executes nothing itself and starts
// no goroutine: panics become *par.PanicError in the pool, a failed run
// aborts the sweep with its error, and what finished before that is
// already in the store.
package exp

import (
	"log"

	"repro/internal/core"
)

// SweepOpts completes o the way every CLI sweep runs. The caller sets
// the plain fields (Ctx, Check, Telemetry, Spans) and declares the
// whole sweep's size to o.Spans once, before its first run; SweepOpts
// turns the -jobs value into the pool size (0 = one worker per CPU)
// and attaches the -out store st, which may be nil. Fresh runs are
// persisted, with a failed save logged rather than aborting the sweep,
// and a corrupt artifact found on lookup is counted by o.Spans as well
// as quarantined.
func SweepOpts(o core.Opts, jobs int, st *Store) core.Opts {
	o.Workers = jobs
	if jobs <= 0 {
		o.Workers = core.WorkersAll
	}
	if st != nil {
		st.OnCorrupt(o.Spans.CorruptArtifact)
		o.Lookup = st.Lookup
		o.OnResult = st.SaveResult(func(err error) { log.Print(err) })
	}
	return o
}
