package core

import (
	"encoding/json"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/check"
	"repro/internal/ckpt"
	"repro/internal/fabric"
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
	t.Run("torus_dateline", func(t *testing.T) { composeTorus(t, golden.Variants["torus_dateline"]) })
}

// torusSnap is the torus run's state at an event boundary: what
// core.Snapshot carries, for a network no Scenario builds.
type torusSnap struct {
	kernel sim.KernelState
	fabric []byte
	pkts   []ckpt.PacketRecord
	events []ckpt.EventRecord
	floods []goldenFlood
	digSum uint64
	digN   uint64
}

func (tr *torusRun) snapshot(t *testing.T) *torusSnap {
	t.Helper()
	simr := tr.net.Sim()
	tab := ckpt.NewPacketTable()
	blob, err := json.Marshal(tr.net.ExportState(tab))
	if err != nil {
		t.Fatal(err)
	}
	snap := &torusSnap{kernel: simr.ExportKernel(), fabric: blob}
	fc := tr.net.Codec(tab)
	for _, e := range simr.PendingEvents() {
		rec, ok := fc.EncodeAction(e.Action())
		if !ok {
			t.Fatalf("pending %T is not a fabric action", e.Action())
		}
		rec.T, rec.Seq = int64(e.Time()), e.Seq()
		snap.events = append(snap.events, rec)
	}
	snap.pkts = append(snap.pkts, tab.Records()...)
	for _, f := range tr.floods {
		snap.floods = append(snap.floods, *f)
	}
	snap.digSum, snap.digN = tr.dig.State()
	return snap
}

// restoreTorus rebuilds the torus run from snap the way
// core.RestoreSnapshot rebuilds an instance.
func restoreTorus(t *testing.T, snap *torusSnap) *torusRun {
	t.Helper()
	tr := newTorusRun(t)
	simr := tr.net.Sim()
	simr.BeginRestore(snap.kernel)
	var st fabric.State
	if err := json.Unmarshal(snap.fabric, &st); err != nil {
		t.Fatal(err)
	}
	tab := ckpt.RestoreTable(snap.pkts)
	if err := tr.net.RestoreState(&st, tab); err != nil {
		t.Fatal(err)
	}
	fc := tr.net.Codec(tab)
	for _, rec := range snap.events {
		act, attach, _, err := fc.DecodeAction(rec)
		if err != nil {
			t.Fatal(err)
		}
		e := simr.ScheduleReserved(sim.Time(rec.T), rec.Seq, act)
		if attach != nil {
			attach(e)
		}
	}
	if err := fc.CheckArmed(); err != nil {
		t.Fatal(err)
	}
	for i, f := range tr.floods {
		f.remaining, f.nextID = snap.floods[i].remaining, snap.floods[i].nextID
	}
	tr.dig.RestoreState(snap.digSum, snap.digN)
	return tr
}

// checker attaches the invariant checker to the torus run as it stands.
func (tr *torusRun) checker() *check.Checker {
	ck := check.New(check.Target{Sim: tr.net.Sim(), Net: tr.net, Pool: tr.net.PacketPool()}, check.Config{})
	ck.Attach(tr.net.Bus())
	return ck
}

// sweepTo steps the run to end the way Instance's loop does.
func sweepTo(simr *sim.Simulator, ck *check.Checker, end sim.Time) {
	for simr.Now().Before(end) {
		simr.RunUntil(min(end, ck.NextSweep()))
		ck.Sweep()
	}
}

// composeTorus is the property on the torus variant: snapshots taken at
// the golden run's slice boundary by a checked and by an unchecked run
// both continue, under the checker, onto the golden trajectory.
func composeTorus(t *testing.T, want goldenVariant) {
	checked := newTorusRun(t)
	ck := checked.checker()
	checked.net.Start()
	sweepTo(checked.net.Sim(), ck, torusCut)
	byChecked := checked.snapshot(t)
	sweepTo(checked.net.Sim(), ck, torusEnd)
	if got := checked.variant(t); got != want {
		t.Errorf("checked run:\n   got %+v\ngolden %+v", got, want)
	}
	requireClean(t, "checked torus run", ck)

	bare := newTorusRun(t)
	bare.net.Start()
	bare.net.Sim().RunUntil(torusCut)

	for writer, snap := range map[string]*torusSnap{"checked": byChecked, "unchecked": bare.snapshot(t)} {
		re := restoreTorus(t, snap)
		ck := re.checker()
		sweepTo(re.net.Sim(), ck, torusEnd)
		if got := re.variant(t); got != want {
			t.Errorf("continuation of the %s run's snapshot:\n   got %+v\ngolden %+v", writer, got, want)
		}
		requireClean(t, "checked continuation of the "+writer+" torus run", ck)
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
