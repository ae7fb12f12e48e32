package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

func TestTrackerLifecycle(t *testing.T) {
	tr := NewTracker()
	tr.AddTotal(3)

	id1 := tr.Begin("cell-a", 0)
	id2 := tr.Begin("cell-b", 1)
	st := tr.Stats()
	if st.Active != 2 || st.Total != 3 || st.Done != 0 {
		t.Fatalf("mid-flight stats: %+v", st)
	}

	tr.End(id1, 1000, false, "")
	tr.End(id2, 0, true, "")
	if mid := tr.Stats(); mid.ETAMS <= 0 {
		t.Fatalf("eta = %v with %d/%d finished", mid.ETAMS, mid.Done+mid.Failed, mid.Total)
	}
	// A name is a label: another sweep's cell-a is one more job.
	id3 := tr.Begin("cell-a", 0)
	tr.End(id3, 500, false, "boom")

	st = tr.Stats()
	if st.Done != 2 || st.Failed != 1 || st.Cached != 1 {
		t.Fatalf("final stats: %+v", st)
	}
	if st.Events != 1500 {
		t.Fatalf("events = %d", st.Events)
	}
	if st.Workers != 2 {
		t.Fatalf("workers = %d", st.Workers)
	}
	if st.WorkerUtil <= 0 || st.WorkerUtil > 1 {
		t.Fatalf("util = %v", st.WorkerUtil)
	}
	if st.JobMS.Count != 3 {
		t.Fatalf("job hist count = %d", st.JobMS.Count)
	}
	if len(st.Recent) != 3 {
		t.Fatalf("recent = %+v", st.Recent)
	}
	last := st.Recent[2]
	if last.Name != "cell-a" || last.Err != "boom" {
		t.Fatalf("recent tail: %+v", last)
	}
	if st.ETAMS != 0 {
		t.Fatalf("eta = %v after every job finished", st.ETAMS)
	}
}

// Artifact hits are not simulated work: a cached End leaves the sweep's
// event count at 0 (its span keeps the artifact's count), and the ETA
// extrapolates from the runs this process simulated — after 7 hits and
// 1 simulated run, 2 remaining runs take twice the elapsed time, not a
// quarter of it.
func TestTrackerCachedIsNotSimulatedWork(t *testing.T) {
	tr := NewTracker()
	tr.AddTotal(10)
	for i := 0; i < 7; i++ {
		tr.End(tr.Begin("hit", 0), 1000, true, "")
	}
	st := tr.Stats()
	if st.Events != 0 || st.EventsPerSec != 0 || st.Recent[0].Events != 1000 {
		t.Fatalf("after 7 cached jobs: events %d at %v/s, span %+v", st.Events, st.EventsPerSec, st.Recent[0])
	}
	if st.ETAMS != 0 {
		t.Fatalf("eta = %v with nothing simulated, want 0 (unknown)", st.ETAMS)
	}
	tr.End(tr.Begin("fresh", 0), 500, false, "")
	st = tr.Stats()
	if st.Done != 8 || st.Cached != 7 || st.Events != 500 {
		t.Fatalf("after 1 simulated job: %+v", st)
	}
	if want := 2 * st.ElapsedMS; math.Abs(st.ETAMS-want) > 1e-9*want {
		t.Fatalf("eta = %v ms after %v ms, want %v (2 left at 1 simulated)", st.ETAMS, st.ElapsedMS, want)
	}
}

func TestTrackerRecentRingBounded(t *testing.T) {
	tr := NewTracker()
	for i := 0; i < recentJobs+50; i++ {
		id := tr.Begin("job", 0)
		tr.End(id, 0, false, "")
	}
	st := tr.Stats()
	if len(st.Recent) != recentJobs {
		t.Fatalf("recent len = %d, want %d", len(st.Recent), recentJobs)
	}
	if st.Done != recentJobs+50 {
		t.Fatalf("done = %d", st.Done)
	}
}

// TestTrackerRepeatedNameIsNotARetry: two sweeps sharing scenario names
// against one tracker — what `paperbench -exp table2 -seeds 2` produces,
// its seed-1 hotspot scenarios run once in the table and once in the
// per-seed aggregate — are plain jobs. The tracker used to count every
// repeated name as a retry and wrote "retries": 3 into the run report
// of eight jobs that each ran once.
func TestTrackerRepeatedNameIsNotARetry(t *testing.T) {
	tr := NewTracker()
	for sweep := 0; sweep < 2; sweep++ {
		tr.AddTotal(2)
		for _, name := range []string{"silent cc=off", "silent cc=on"} {
			tr.End(tr.Begin(name, 0), 10, false, "")
		}
	}
	st := tr.Stats()
	if st.Total != 4 || st.Done != 4 || st.Failed != 0 {
		t.Fatalf("stats: %+v", st)
	}
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "retr") {
		t.Fatalf("sweep stats still report retries: %s", data)
	}
}

// The status line counts what the tracker counts: one rewritten line
// per finished job with done/total, the event rate, and the cached
// count once there is one.
func TestTrackerStatusLine(t *testing.T) {
	var sb strings.Builder
	tr := NewTracker()
	tr.StatusTo(&sb, false)
	tr.AddTotal(2)
	tr.End(tr.Begin("a", 0), 1000, false, "")
	tr.End(tr.Begin("b", 0), 1000, true, "")
	out := sb.String()
	if strings.Count(out, "\r\x1b[K") != 2 || !strings.Contains(out, "[1/2]") || !strings.Contains(out, "[2/2]") {
		t.Fatalf("status lines missing counters:\n%q", out)
	}
	if !strings.Contains(out, "events/s") || !strings.HasSuffix(out, ", 1 cached") {
		t.Fatalf("status line missing rate or cache count:\n%q", out)
	}
}

// In JSONL mode every finished job appends one SweepStats object, the
// recent jobs left out; the last one carries no ETA.
func TestTrackerStatusJSONL(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracker()
	tr.StatusTo(&buf, true)
	tr.AddTotal(3)
	for i := 0; i < 3; i++ {
		tr.End(tr.Begin("job", i%2), 10, false, "")
	}
	out := strings.TrimRight(buf.String(), "\n")
	if strings.ContainsAny(out, "\r\x1b") {
		t.Fatalf("JSONL output contains terminal control codes: %q", out)
	}
	lines := strings.Split(out, "\n")
	if len(lines) != 3 {
		t.Fatalf("%d lines, want 3: %q", len(lines), out)
	}
	for i, line := range lines {
		var st SweepStats
		if err := json.Unmarshal([]byte(line), &st); err != nil {
			t.Fatalf("line %d not JSON: %v: %q", i, err, line)
		}
		if st.Done != i+1 || st.Total != 3 || st.Events != uint64(10*(i+1)) || st.JobMS.Count != uint64(i+1) {
			t.Fatalf("line %d: %+v", i, st)
		}
		if st.Recent != nil {
			t.Fatalf("line %d carries the recent jobs: %q", i, line)
		}
		if i == 2 && st.ETAMS != 0 {
			t.Fatalf("final line carries an ETA: %+v", st)
		}
	}
}

func TestTrackerNilSafe(t *testing.T) {
	var tr *Tracker
	tr.StatusTo(io.Discard, true)
	tr.AddTotal(5)
	id := tr.Begin("x", 0)
	if id != -1 {
		t.Fatalf("nil Begin = %d", id)
	}
	tr.End(id, 0, false, "")
	st := tr.Stats()
	if st.Total != 0 || st.Done != 0 {
		t.Fatalf("nil stats: %+v", st)
	}
}

func TestTrackerEndUnknownID(t *testing.T) {
	tr := NewTracker()
	tr.End(99, 0, false, "") // unknown id must be ignored
	if st := tr.Stats(); st.Done != 0 || st.Failed != 0 {
		t.Fatalf("unknown end counted: %+v", st)
	}
}

func TestHubAggregation(t *testing.T) {
	h := NewHub(0)
	b1, b2 := obs.New(), obs.New()
	finish1, finish2 := h.StartRun(b1), h.StartRun(b2)
	if snap := h.Snapshot(); snap.Runs != 0 || snap.Completion.Count != 0 {
		t.Fatalf("snapshot before any run finished: %+v", snap)
	}

	b1.PacketDelivered(sim.Time(1000), 8, dataPacket(2, 8, 5, 0, 1, 0, false))
	finish1()
	b2.PacketDelivered(sim.Time(3000), 8, dataPacket(2, 8, 5, 0, 1, 0, false))
	finish2()

	snap := h.Snapshot()
	if snap.Runs != 2 {
		t.Fatalf("finished snapshot: %+v", snap)
	}
	if snap.Completion.Count != 2 {
		t.Fatalf("aggregate completion count = %d", snap.Completion.Count)
	}
}

func TestHubNilSafe(t *testing.T) {
	var h *Hub
	if snap := h.Snapshot(); snap.Runs != 0 || snap.HotPorts != nil {
		t.Fatalf("nil hub snapshot: %+v", snap)
	}
}

// TestFreshTrackerStatsMarshal reads a just-created tracker the way the
// report of an at-once interrupted sweep does: zero finished jobs and near-zero elapsed time
// must still produce finite, marshalable stats — encoding/json errors
// on ±Inf/NaN, so a bad division here fails the whole poll.
func TestFreshTrackerStatsMarshal(t *testing.T) {
	tr := NewTracker()
	tr.AddTotal(100)
	st := tr.Stats()
	if _, err := json.Marshal(st); err != nil {
		t.Fatalf("fresh tracker stats do not marshal: %v", err)
	}
	if st.ETAMS != 0 {
		t.Fatalf("ETA with zero finished jobs = %v, want 0", st.ETAMS)
	}
	for name, v := range map[string]float64{
		"elapsed_ms": st.ElapsedMS, "events_per_sec": st.EventsPerSec,
		"eta_ms": st.ETAMS, "worker_util": st.WorkerUtil,
	} {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("%s = %v not finite", name, v)
		}
	}

	// A tracker with active-but-unfinished work: still finished == 0.
	tr2 := NewTracker()
	tr2.AddTotal(4)
	tr2.Begin("job-a", 0)
	st2 := tr2.Stats()
	if _, err := json.Marshal(st2); err != nil {
		t.Fatalf("active tracker stats do not marshal: %v", err)
	}
	if st2.ETAMS != 0 || math.IsNaN(st2.WorkerUtil) {
		t.Fatalf("active tracker: eta=%v util=%v", st2.ETAMS, st2.WorkerUtil)
	}
}

// TestSweepStatsSanitize pins the defense-in-depth scrub: non-finite
// fields zero out rather than reaching the encoder.
func TestSweepStatsSanitize(t *testing.T) {
	st := SweepStats{
		ElapsedMS:    math.Inf(1),
		EventsPerSec: math.Inf(-1),
		ETAMS:        math.NaN(),
		WorkerUtil:   0.5,
	}
	st.sanitize()
	if st.ElapsedMS != 0 || st.EventsPerSec != 0 || st.ETAMS != 0 {
		t.Fatalf("sanitize left non-finite fields: %+v", st)
	}
	if st.WorkerUtil != 0.5 {
		t.Fatalf("sanitize clobbered finite field: %v", st.WorkerUtil)
	}
	if _, err := json.Marshal(st); err != nil {
		t.Fatalf("sanitized stats do not marshal: %v", err)
	}
}

func TestJobSpanErrStrings(t *testing.T) {
	tr := NewTracker()
	id := tr.Begin(strings.Repeat("n", 10), 3)
	tr.End(id, 42, false, "scenario failed: check")
	st := tr.Stats()
	if st.Recent[0].Worker != 3 || st.Recent[0].Events != 42 {
		t.Fatalf("span fields: %+v", st.Recent[0])
	}
}
