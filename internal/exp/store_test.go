package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topo"
)

// quick returns a small, fast real scenario.
func quick(radix int) core.Scenario {
	s := core.Default(radix)
	s.Warmup = 200 * sim.Microsecond
	s.Measure = 400 * sim.Microsecond
	return s
}

func TestFingerprintStability(t *testing.T) {
	a, b := quick(6), quick(6)
	if Fingerprint(a) != Fingerprint(b) {
		t.Fatal("identical scenarios fingerprint differently")
	}
	b.Seed = 2
	if Fingerprint(a) == Fingerprint(b) {
		t.Fatal("seed change did not change the fingerprint")
	}
	c := a
	c.CC.Threshold++
	if Fingerprint(a) == Fingerprint(c) {
		t.Fatal("CC parameter change did not change the fingerprint")
	}
}

func TestStoreRoundTrip(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := quick(6)
	if _, ok := st.Lookup(s); ok {
		t.Fatal("empty store reported a hit")
	}
	res, err := core.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(s, res, 0); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 1 {
		t.Fatalf("store holds %d artifacts", st.Len())
	}
	got, ok := st.Lookup(s)
	if !ok {
		t.Fatal("saved scenario not found")
	}
	if got.Summary != res.Summary || got.Events != res.Events || got.Name != res.Name {
		t.Fatalf("loaded result differs:\n%v\n%v", got.Summary, res.Summary)
	}
	// A different scenario misses.
	other := s
	other.Seed = 99
	if _, ok := st.Lookup(other); ok {
		t.Fatal("different scenario hit the same artifact")
	}
	// The artifact on disk is well-formed JSON with the expected keys.
	files, _ := filepath.Glob(filepath.Join(st.Dir(), "*.json"))
	if len(files) != 1 {
		t.Fatalf("artifact files: %v", files)
	}
	b, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	var a Artifact
	if err := json.Unmarshal(b, &a); err != nil {
		t.Fatal(err)
	}
	if a.Name != s.Name || a.Fingerprint != Fingerprint(s) {
		t.Fatalf("artifact metadata: %+v", a)
	}

	// A faulted scenario is keyed by its plan too, and a hit returns the
	// injector's stats with the result, so a faulted run resumes from its
	// artifact.
	tp, err := topo.FatTree(s.Radix)
	if err != nil {
		t.Fatal(err)
	}
	faulted := s
	faulted.Faults, err = fault.Synth(fault.SynthConfig{Seed: 7, Intensity: 0.6, Links: fault.FabricLinks(tp),
		Horizon: sim.Time(0).Add(s.Warmup + s.Measure), SampleEvery: (s.Warmup + s.Measure) / 32})
	if err != nil {
		t.Fatal(err)
	}
	if Fingerprint(faulted) == Fingerprint(s) {
		t.Fatal("the fault plan did not change the fingerprint")
	}
	fres, err := core.Run(faulted)
	if err != nil {
		t.Fatal(err)
	}
	if fres.Faults == nil || fres.Faults.LinkDowns == 0 || len(fres.Faults.Samples) == 0 {
		t.Fatalf("faulted run recorded no faults: %+v", fres.Faults)
	}
	if err := st.Save(faulted, fres, 0); err != nil {
		t.Fatal(err)
	}
	got, ok = st.Lookup(faulted)
	if !ok {
		t.Fatal("saved faulted scenario not found")
	}
	if !reflect.DeepEqual(got.Faults, fres.Faults) || got.Summary != fres.Summary {
		t.Fatalf("loaded faulted result differs:\n%+v\n%+v", got.Faults, fres.Faults)
	}
}

func TestStoreIgnoresCorruptArtifact(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := quick(6)
	fp := Fingerprint(s)
	if err := os.WriteFile(st.path(fp), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Lookup(s); ok {
		t.Fatal("corrupt artifact accepted")
	}
}

// An artifact written before results carried the whole-run window —
// a valid CRC, no WholeRun — is a plain miss: neither served nor
// quarantined, and the sweep re-simulates the scenario and overwrites
// it with a result that has the window.
func TestStoreMissesArtifactWithoutWholeRun(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := quick(6)
	res, err := core.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	old := *res
	old.WholeRun = nil
	if err := st.Save(s, &old, 0); err != nil {
		t.Fatal(err)
	}
	if b, _ := os.ReadFile(st.path(Fingerprint(s))); bytes.Contains(b, []byte("WholeRun")) {
		t.Fatal("the parent-shaped artifact carries a WholeRun key")
	}
	corrupt := 0
	st.OnCorrupt(func(string) { corrupt++ })
	if r, ok := st.Lookup(s); ok || r != nil {
		t.Fatal("an artifact without the whole-run window was served")
	}
	if _, err := os.Stat(st.QuarantineDir()); !os.IsNotExist(err) || corrupt != 0 || st.Len() != 1 {
		t.Fatalf("the artifact was quarantined (%d corrupt, %d in store): %v", corrupt, st.Len(), err)
	}
	tr := telemetry.NewTracker()
	tr.AddTotal(1)
	got, err := core.RunSeedsOpts(s, []uint64{s.Seed}, SweepOpts(core.Opts{Spans: tr}, 1, st))
	if err != nil {
		t.Fatal(err)
	}
	if sw := tr.Stats(); sw.Cached != 0 || sw.Events == 0 || got.Total.Mean() != res.Summary.TotalGbps {
		t.Fatalf("sweep over the old artifact: %+v", sw)
	}
	if r, ok := st.Lookup(s); !ok || !reflect.DeepEqual(r.WholeRun, res.WholeRun) {
		t.Fatal("the re-simulated result did not replace the old artifact")
	}
}

func TestStoreCoreOptsIntegration(t *testing.T) {
	// The store's Lookup/SaveResult hooks plug into a core sweep and
	// make it resumable with identical aggregates.
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := quick(6)
	seeds := []uint64{1, 2}
	opts := core.Opts{
		Workers:  2,
		Lookup:   st.Lookup,
		OnResult: st.SaveResult(func(err error) { t.Error(err) }),
	}
	fresh, err := core.RunSeedsOpts(s, seeds, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != len(seeds) {
		t.Fatalf("store holds %d artifacts", st.Len())
	}
	resumed, err := core.RunSeedsOpts(s, seeds, opts)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Total.Mean() != resumed.Total.Mean() || fresh.Events.Mean() != resumed.Events.Mean() {
		t.Fatal("resumed sweep differs from fresh sweep")
	}
}

func TestStoreQuarantinesCorruptArtifact(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var corrupt []string
	st.OnCorrupt(func(path string) { corrupt = append(corrupt, path) })
	s := quick(6)
	fp := Fingerprint(s)
	if err := os.WriteFile(st.path(fp), []byte("{torn artifa"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Lookup(s); ok {
		t.Fatal("torn artifact accepted")
	}
	// Moved aside with a reason sidecar, not deleted.
	moved := filepath.Join(st.QuarantineDir(), filepath.Base(st.path(fp)))
	if _, err := os.Stat(moved); err != nil {
		t.Fatalf("corrupt artifact not quarantined: %v", err)
	}
	note, err := os.ReadFile(moved + ".reason.json")
	if err != nil {
		t.Fatalf("reason sidecar: %v", err)
	}
	if !bytes.Contains(note, []byte("invalid JSON")) {
		t.Fatalf("reason sidecar content: %s", note)
	}
	if len(corrupt) != 1 || corrupt[0] != moved {
		t.Fatalf("onCorrupt observed %v", corrupt)
	}
	// The slot is free again: a fresh save round-trips.
	if err := st.Save(s, &core.Result{Name: "fresh", Events: 3, WholeRun: &metrics.Classes{}}, 0); err != nil {
		t.Fatal(err)
	}
	if got, ok := st.Lookup(s); !ok || got.Events != 3 {
		t.Fatalf("fresh artifact after quarantine: %v %v", got, ok)
	}
}

// tamper flips one character of a saved artifact's stored name — a
// change that keeps the JSON valid, so only the checksum can catch it.
func tamper(t *testing.T, st *Store, s core.Scenario) string {
	t.Helper()
	path := st.path(Fingerprint(s))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(b, []byte(`"crc32"`)) {
		t.Fatalf("saved artifact carries no checksum:\n%s", b)
	}
	i := bytes.Index(b, []byte(`"name": "`))
	if i < 0 {
		t.Fatal("tamper target not found")
	}
	b[i+len(`"name": "`)] ^= 1
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestArtifactCRCDetectsTampering(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := quick(6)
	if err := st.Save(s, &core.Result{Name: "crc", Events: 9}, 0); err != nil {
		t.Fatal(err)
	}
	path := tamper(t, st, s)
	if _, ok := st.Lookup(s); ok {
		t.Fatal("tampered artifact passed the checksum")
	}
	if _, err := os.Stat(filepath.Join(st.QuarantineDir(), filepath.Base(path))); err != nil {
		t.Fatalf("tampered artifact not quarantined: %v", err)
	}
}

// TestSweepOptsCountsCorruptArtifact: SweepOpts is what connects the
// store's corruption observer to the tracker's counter. Resuming over
// one tampered artifact re-simulates that run, leaves the bad file in
// quarantine/ and reports corrupt_artifacts = 1 — the counter was
// always 0 while nothing called Tracker.CorruptArtifact.
func TestSweepOptsCountsCorruptArtifact(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := quick(6)
	seeds := []uint64{1, 2}
	fresh, err := core.RunSeedsOpts(s, seeds, SweepOpts(core.Opts{}, 1, st))
	if err != nil {
		t.Fatal(err)
	}
	s2 := s
	s2.Seed = 2
	tamper(t, st, s2)

	tr := telemetry.NewTracker()
	tr.AddTotal(len(seeds))
	resumed, err := core.RunSeedsOpts(s, seeds, SweepOpts(core.Opts{Spans: tr}, 2, st))
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Total.Mean() != resumed.Total.Mean() || fresh.Events.Mean() != resumed.Events.Mean() {
		t.Fatal("sweep resumed over a corrupt artifact differs from the fresh one")
	}
	stats := tr.Stats()
	if stats.CorruptArtifacts != 1 || stats.Total != 2 || stats.Done != 2 || stats.Cached != 1 {
		t.Fatalf("sweep stats: %+v", stats)
	}
	files, err := filepath.Glob(filepath.Join(st.QuarantineDir(), "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 { // the artifact and its .reason.json sidecar
		t.Fatalf("quarantine holds %v", files)
	}
	if st.Len() != len(seeds) {
		t.Fatalf("store holds %d artifacts after the re-run", st.Len())
	}
}

// TestCancelledSweepKeepsFinishedArtifacts is the graceful-drain
// contract through the funnel: a sweep cancelled mid-way returns the
// context error, the store holds exactly what finished — the sweep's
// only on-disk record — and a re-run over the same store simulates only
// the rest.
func TestCancelledSweepKeepsFinishedArtifacts(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seeds := []uint64{1, 2, 3, 4, 5}
	o := SweepOpts(core.Opts{Ctx: ctx}, 1, st)
	save := o.OnResult
	finished := 0
	o.OnResult = func(s core.Scenario, r *core.Result, cached bool) {
		save(s, r, cached)
		if finished++; finished == 2 {
			cancel()
		}
	}
	if _, err := core.RunSeedsOpts(quick(6), seeds, o); !errors.Is(err, context.Canceled) {
		t.Fatalf("sweep err = %v, want context.Canceled", err)
	}
	if ents, err := os.ReadDir(st.Dir()); err != nil || len(ents) != 2 || st.Len() != 2 {
		t.Fatalf("store after cancel holds %v (Len %d), want the 2 finished artifacts: %v", ents, st.Len(), err)
	}
	// The resumed sweep simulates only what was pending.
	tr := telemetry.NewTracker()
	if _, err := core.RunSeedsOpts(quick(6), seeds, SweepOpts(core.Opts{Spans: tr}, 1, st)); err != nil {
		t.Fatal(err)
	}
	if stats := tr.Stats(); stats.Done != 5 || stats.Cached != 2 {
		t.Fatalf("resume ran %d, %d from artifacts; want 5, 2", stats.Done, stats.Cached)
	}
}

// FuzzStoreLookup feeds hostile bytes to Lookup as the artifact of a
// real fingerprint. It must never panic; a hit returns a result from an
// artifact that carries that fingerprint, and a miss on a present file
// moves the file into quarantine/.
func FuzzStoreLookup(f *testing.F) {
	s := quick(6)
	fp := Fingerprint(s)
	encode := func(a Artifact) []byte {
		b, err := a.encode()
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	res := &core.Result{Name: "fuzz", Events: 7, WholeRun: &metrics.Classes{}}
	valid := encode(Artifact{Name: s.Name, Fingerprint: fp, Scenario: s, Result: res})
	flipped := bytes.Clone(valid)
	flipped[len(flipped)/3] ^= 0x20
	other := s
	other.Seed = 2
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(flipped)
	f.Add(encode(Artifact{Name: s.Name, Fingerprint: Fingerprint(other), Scenario: other, Result: res}))
	f.Add(encode(Artifact{Name: s.Name, Fingerprint: fp, Scenario: s}))
	f.Add(encode(Artifact{Name: s.Name, Fingerprint: fp, Scenario: s, Result: &core.Result{Name: "fuzz", Events: 7}}))
	st, err := NewStore(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	path := st.path(fp)
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.RemoveAll(st.QuarantineDir()); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		r, ok := st.Lookup(s)
		if ok {
			var a Artifact
			if err := json.Unmarshal(data, &a); r == nil || err != nil || a.Fingerprint != fp {
				t.Fatalf("hit returned %v from an artifact keyed %q (%v)", r, a.Fingerprint, err)
			}
			return
		}
		if _, err := os.Stat(path); err == nil {
			// Only an intact artifact without the whole-run window is a
			// plain miss that stays in place.
			var a Artifact
			if err := json.Unmarshal(data, &a); err != nil || a.Fingerprint != fp || a.Result == nil ||
				a.Result.WholeRun != nil || a.verify() != nil {
				t.Fatalf("missed artifact still in the store: %v", err)
			}
			return
		}
		if _, err := os.Stat(filepath.Join(st.QuarantineDir(), filepath.Base(path))); err != nil {
			t.Fatalf("missed artifact not quarantined: %v", err)
		}
	})
}
