package core

import (
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/check"
	"repro/internal/ckpt"
	"repro/internal/sim"
)

// The composition property: the invariant checker and checkpoint/restore
// ride one run loop, so every combination — checked run writing cadence
// checkpoints, checked continuation of a checkpoint a checked run wrote,
// checked continuation of one an unchecked run wrote — lands on the
// golden trajectory with a clean audit. 75 µs cadence against the 50 µs
// sweep window makes the two kinds of stop both interleave and coincide.

const composeCadence = 75 * sim.Microsecond

// requireClean fails unless the checker swept and found nothing.
func requireClean(t *testing.T, what string, ck *check.Checker) {
	t.Helper()
	rep := ck.Report()
	if rep.Total != 0 || rep.Sweeps == 0 {
		t.Errorf("%s: %s", what, rep.Summary())
	}
}

// cadenceRun executes s writing cadence checkpoints into a fresh
// directory, under the checker when checked, and returns the directory.
// Either way the run must land on the golden trajectory.
func cadenceRun(t *testing.T, s Scenario, checked bool, digest string, events uint64) string {
	t.Helper()
	in, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	dig := in.AttachDigest()
	var ck *check.Checker
	if checked {
		ck = in.Check(CheckOpts{})
	}
	dir := t.TempDir()
	res, err := in.ExecuteWithCheckpoints(CkptOpts{Every: composeCadence, Dir: dir, Keep: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if dig.Sum() != digest || res.Events != events {
		t.Errorf("%s (checked=%v): digest %s over %d events, golden %s over %d",
			s.Name, checked, dig.Sum(), res.Events, digest, events)
	}
	if ck != nil {
		requireClean(t, s.Name+" checked cadence run", ck)
	}
	return dir
}

// midCheckpoint returns the middle file of a cadence series.
func midCheckpoint(t *testing.T, dir string) string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*"+ckpt.Ext))
	if err != nil || len(names) < 3 {
		t.Fatalf("cadence series in %s: %d files, %v", dir, len(names), err)
	}
	sort.Strings(names)
	return names[len(names)/2]
}

func TestCheckpointComposesWithChecker(t *testing.T) {
	if testing.Short() {
		t.Skip("composition corpus is not short")
	}
	golden := loadGolden(t)
	type pinned struct {
		s      Scenario
		digest string
		events uint64
	}
	corpus := []pinned{{goldenWindy(), golden.ObsDigest, golden.WindyEvents}}
	for name, s := range goldenVariantScenarios(t) {
		corpus = append(corpus, pinned{s, golden.Variants[name].ObsDigest, golden.Variants[name].SimEvents})
	}
	for _, p := range corpus {
		for _, checkedWriter := range []bool{true, false} {
			file := midCheckpoint(t, cadenceRun(t, p.s, checkedWriter, p.digest, p.events))
			re, err := RestoreFile(file)
			if err != nil {
				t.Fatalf("%s: restore %s (checked writer=%v): %v", p.s.Name, file, checkedWriter, err)
			}
			ck := re.Check(CheckOpts{})
			res := re.Execute()
			if got := re.AttachDigest().Sum(); got != p.digest || res.Events != p.events {
				t.Errorf("%s resumed from %s (checked writer=%v): digest %s over %d events, golden %s over %d",
					p.s.Name, filepath.Base(file), checkedWriter, got, res.Events, p.digest, p.events)
			}
			requireClean(t, p.s.Name+" checked continuation", ck)
		}
	}
}

// TestCheckerAfterRestoreCountsOwnEvents: a checker attached to a
// restored instance probes exactly the events executed after it
// attached — the kernel's lifetime count resumes from the checkpoint,
// the checker's does not — and the FEL-order probe, which the snapshot
// does not carry, starts afresh and stays clean.
func TestCheckerAfterRestoreCountsOwnEvents(t *testing.T) {
	s := Default(8)
	s.Name = "restore-checked"
	s.Warmup, s.Measure = 100*sim.Microsecond, 200*sim.Microsecond
	in, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := in.ExecuteWithCheckpoints(CkptOpts{Every: composeCadence, Dir: dir, Keep: 1 << 10}); err != nil {
		t.Fatal(err)
	}
	re, err := RestoreFile(midCheckpoint(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	attachedAt := re.Net.Sim().Processed()
	ck := re.Check(CheckOpts{})
	res := re.Execute()
	rep := ck.Report()
	if attachedAt == 0 || rep.EventsChecked != res.Events-attachedAt {
		t.Fatalf("checker attached at event %d of %d probed %d events, want %d",
			attachedAt, res.Events, rep.EventsChecked, res.Events-attachedAt)
	}
	requireClean(t, s.Name, ck)
}
