package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/telemetry"
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
	if _, ok := st.Load(s); ok {
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
	got, ok := st.Load(s)
	if !ok {
		t.Fatal("saved scenario not found")
	}
	if got.Summary != res.Summary || got.Events != res.Events || got.Name != res.Name {
		t.Fatalf("loaded result differs:\n%v\n%v", got.Summary, res.Summary)
	}
	// A different scenario misses.
	other := s
	other.Seed = 99
	if _, ok := st.Load(other); ok {
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
	if _, ok := st.Load(s); ok {
		t.Fatal("corrupt artifact accepted")
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
	if _, ok := st.Load(s); ok {
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
	if err := st.Save(s, &core.Result{Name: "fresh", Events: 3}, 0); err != nil {
		t.Fatal(err)
	}
	if got, ok := st.Load(s); !ok || got.Events != 3 {
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
	if _, ok := st.Load(s); ok {
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
	fresh, err := core.RunSeedsOpts(s, seeds, SweepOpts(core.Opts{}, 1, len(seeds), st, nil))
	if err != nil {
		t.Fatal(err)
	}
	s2 := s
	s2.Seed = 2
	tamper(t, st, s2)

	tr := telemetry.NewTracker()
	prog := NewProgress(&bytes.Buffer{}, len(seeds))
	resumed, err := core.RunSeedsOpts(s, seeds, SweepOpts(core.Opts{Spans: tr}, 2, len(seeds), st, prog))
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
	if done, cached, events := prog.Counts(); done != 2 || cached != 1 || events != stats.Events {
		t.Fatalf("progress counted %d done, %d cached, %d events; tracker %d events", done, cached, events, stats.Events)
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

func TestManifestClassifiesAndRoundTrips(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Three of five declared runs complete: two saved fresh, then the
	// first served again from its artifact.
	st.Expect(5)
	a, b := quick(6), quick(6)
	b.Seed = 2
	for _, s := range []core.Scenario{a, b} {
		if err := st.Save(s, &core.Result{Name: s.Name, Events: 1}, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := st.Load(a); !ok {
		t.Fatal("saved scenario not found")
	}
	c := a
	c.Seed = 3
	if _, ok := st.Load(c); ok {
		t.Fatal("miss reported as a hit")
	}

	path, err := st.WriteManifest(true)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != ManifestName {
		t.Fatalf("manifest path: %s", path)
	}
	m, ok, err := st.ReadManifest()
	if err != nil || !ok {
		t.Fatalf("read manifest: %v %v", ok, err)
	}
	if !m.Interrupted || m.Total != 5 || m.NumDone != 3 || m.NumPending != 2 || len(m.Done) != 3 {
		t.Fatalf("manifest: %+v", m)
	}
	if d := m.Done[1]; d.Name != b.Name || d.Fingerprint != Fingerprint(b) || d.Cached {
		t.Fatalf("fresh entry: %+v", d)
	}
	if d := m.Done[2]; d.Fingerprint != Fingerprint(a) || !d.Cached {
		t.Fatalf("cached entry: %+v", d)
	}
	for _, d := range m.Done {
		if _, err := os.Stat(filepath.Join(st.Dir(), d.Artifact)); err != nil {
			t.Errorf("done artifact %s: %v", d.Artifact, err)
		}
	}
	// The manifest does not count as an artifact.
	if st.Len() != 2 {
		t.Fatalf("store holds %d artifacts, want 2", st.Len())
	}
	// More completions than declared: the total follows them.
	st2, _ := NewStore(t.TempDir())
	if err := st2.Save(a, &core.Result{}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := st2.WriteManifest(false); err != nil {
		t.Fatal(err)
	}
	if m, _, _ := st2.ReadManifest(); m.Interrupted || m.Total != 1 || m.NumPending != 0 {
		t.Fatalf("undeclared manifest: %+v", m)
	}
	// A missing manifest reads as absent, not an error.
	st3, _ := NewStore(t.TempDir())
	if _, ok, err := st3.ReadManifest(); ok || err != nil {
		t.Fatalf("empty-store manifest: %v %v", ok, err)
	}
}

// TestCancelledSweepLeavesInterruptedManifest is the graceful-drain
// contract through the funnel: a sweep cancelled mid-way returns the
// context error, what finished is in the store, and the manifest the
// CLI then writes marks the rest pending — where -resume-from picks up.
func TestCancelledSweepLeavesInterruptedManifest(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seeds := []uint64{1, 2, 3, 4, 5}
	o := SweepOpts(core.Opts{Ctx: ctx}, 1, len(seeds), st, nil)
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
	if _, err := st.WriteManifest(true); err != nil {
		t.Fatal(err)
	}
	m, ok, err := st.ReadManifest()
	if err != nil || !ok {
		t.Fatalf("ReadManifest after cancel: ok=%v err=%v", ok, err)
	}
	if !m.Interrupted || m.Total != 5 || m.NumDone != 2 || m.NumPending != 3 {
		t.Fatalf("manifest: %+v", m)
	}
	for _, d := range m.Done {
		if _, err := os.Stat(filepath.Join(st.Dir(), d.Artifact)); err != nil {
			t.Errorf("manifest done artifact %s: %v", d.Artifact, err)
		}
	}
	// The resumed sweep simulates only what was pending.
	prog := NewProgress(&bytes.Buffer{}, len(seeds))
	if _, err := core.RunSeedsOpts(quick(6), seeds, SweepOpts(core.Opts{}, 1, len(seeds), st, prog)); err != nil {
		t.Fatal(err)
	}
	if done, cached, _ := prog.Counts(); done != 5 || cached != 2 {
		t.Fatalf("resume ran %d, %d from artifacts; want 5, 2", done, cached)
	}
}
