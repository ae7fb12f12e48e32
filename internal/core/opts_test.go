package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// TestRunSeedsParallelDeterminism is the determinism guarantee of the
// experiment harness: fanning the per-seed runs out across a worker
// pool must produce bit-identical aggregates to the serial path.
func TestRunSeedsParallelDeterminism(t *testing.T) {
	s := quick(6)
	seeds := []uint64{1, 2, 3, 4, 5, 6}
	serial, err := RunSeedsOpts(s, seeds, Opts{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunSeedsOpts(s, seeds, Opts{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	// The accumulators must match exactly: the same samples were added
	// in the same (submission) order.
	check := func(name string, a, b float64) {
		if a != b {
			t.Errorf("%s: serial %v != parallel %v", name, a, b)
		}
	}
	check("hotspot mean", serial.Hotspot.Mean(), parallel.Hotspot.Mean())
	check("hotspot var", serial.Hotspot.Var(), parallel.Hotspot.Var())
	check("nonhotspot mean", serial.NonHotspot.Mean(), parallel.NonHotspot.Mean())
	check("nonhotspot var", serial.NonHotspot.Var(), parallel.NonHotspot.Var())
	check("all mean", serial.All.Mean(), parallel.All.Mean())
	check("total mean", serial.Total.Mean(), parallel.Total.Mean())
	check("total min", serial.Total.Min(), parallel.Total.Min())
	check("total max", serial.Total.Max(), parallel.Total.Max())
	check("total ci95", serial.Total.CI95(), parallel.Total.CI95())
	check("events mean", serial.Events.Mean(), parallel.Events.Mean())
}

// TestWindySweepParallelDeterminism covers the paired (CC off/on)
// reduction: point order and improvement factors must not depend on
// the worker count.
func TestWindySweepParallelDeterminism(t *testing.T) {
	s := quick(6)
	ps := []int{0, 50, 100}
	serial, err := RunWindySweepOpts(s, 100, ps, Opts{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunWindySweepOpts(s, 100, ps, Opts{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("lengths differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("point %d: serial %+v != parallel %+v", i, serial[i], parallel[i])
		}
	}
}

func TestSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: no run should execute
	ran := 0
	_, err := RunSeedsOpts(quick(6), []uint64{1, 2, 3}, Opts{
		Ctx:      ctx,
		OnResult: func(Scenario, *Result, bool) { ran++ },
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if ran != 0 {
		t.Fatalf("%d runs executed under a cancelled context", ran)
	}
}

// TestPanickingRunClosesItsSpan: the pool recovers a panicking run above
// the funnel, so the funnel itself must close the run's span on the way
// out — it used to stay in the tracker's active set forever, a job
// counted running long after the sweep had failed. The panic
// comes from the lookup hook, the first thing a run does inside its span.
func TestPanickingRunClosesItsSpan(t *testing.T) {
	for _, workers := range []int{1, 2} {
		tr := telemetry.NewTracker()
		_, err := RunSeedsOpts(quick(6), []uint64{1}, Opts{
			Workers: workers,
			Spans:   tr,
			Lookup:  func(Scenario) (*Result, bool) { panic("poisoned scenario") },
		})
		var pe *par.PanicError
		if !errors.As(err, &pe) || pe.Value != "poisoned scenario" {
			t.Fatalf("workers=%d: err = %v, want the run's *par.PanicError", workers, err)
		}
		st := tr.Stats()
		if st.Active != 0 || st.Failed != 1 || st.Done != 0 {
			t.Fatalf("workers=%d: active=%d failed=%d done=%d, want 0/1/0", workers, st.Active, st.Failed, st.Done)
		}
		if len(st.Recent) != 1 || !strings.Contains(st.Recent[0].Err, "poisoned scenario") {
			t.Fatalf("workers=%d: span closed without the panic text: %+v", workers, st.Recent)
		}
	}
}

func TestSweepLookupAndOnResult(t *testing.T) {
	s := quick(6)
	seeds := []uint64{1, 2}
	// Prime a cache with the real results.
	cache := map[uint64]*Result{}
	want, err := RunSeedsOpts(s, seeds, Opts{
		OnResult: func(sc Scenario, r *Result, cached bool) {
			if cached {
				t.Error("fresh run reported as cached")
			}
			cache[sc.Seed] = r
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cache) != len(seeds) {
		t.Fatalf("OnResult saw %d runs", len(cache))
	}
	// Re-run via Lookup only: no simulation may execute, and the
	// aggregates must be identical.
	hits := 0
	got, err := RunSeedsOpts(s, seeds, Opts{
		Workers: 2,
		Lookup: func(sc Scenario) (*Result, bool) {
			r, ok := cache[sc.Seed]
			if !ok {
				t.Errorf("lookup miss for seed %d", sc.Seed)
			}
			return r, ok
		},
		OnResult: func(sc Scenario, r *Result, cached bool) {
			if !cached {
				t.Error("cache hit reported as fresh")
			}
			hits++
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if hits != len(seeds) {
		t.Fatalf("OnResult saw %d cache hits", hits)
	}
	if got.Total.Mean() != want.Total.Mean() || got.Events.Mean() != want.Events.Mean() {
		t.Fatal("resumed aggregates differ from fresh ones")
	}
}

func TestScanEmptyBestAndPrint(t *testing.T) {
	s := &Scan{Name: "threshold"}
	if best := s.Best(); best != (ScanPoint{}) {
		t.Fatalf("Best of empty scan = %+v", best)
	}
	var sb strings.Builder
	s.Print(&sb) // must not panic
	if strings.Contains(sb.String(), "best total") {
		t.Fatalf("empty scan printed a best line:\n%s", sb.String())
	}
	one := &Scan{Name: "threshold", Points: []ScanPoint{{Value: 5, Total: 10}}}
	sb.Reset()
	one.Print(&sb)
	if !strings.Contains(sb.String(), "best total at threshold=5") {
		t.Fatalf("best line missing:\n%s", sb.String())
	}
}

// TestTableIIOptsMatchesSerial runs Table II's rows of the paper table
// serially and on four workers: every record must come out identical.
func TestTableIIOptsMatchesSerial(t *testing.T) {
	pairsMatchSerial(t, func(r PaperRow) bool { return r.Exp == "table2" })
}

// TestMovingSweepOptsMatchesSerial does the same for moving rows: figure
// 9's 1 ms lifetime, whose window stretches to six lifetimes.
func TestMovingSweepOptsMatchesSerial(t *testing.T) {
	pairsMatchSerial(t, func(r PaperRow) bool {
		return r.Exp == "fig9" && r.Off.HotspotLifetime == sim.Millisecond
	})
}

// pairsMatchSerial runs the two rows of Paper that keep selects through
// RunPairs serially and on four workers and compares every leg.
func pairsMatchSerial(t *testing.T, keep func(PaperRow) bool) {
	t.Helper()
	var rows []PaperRow
	for _, r := range Paper(quick(6), nil) {
		if keep(r) {
			rows = append(rows, r)
		}
	}
	if len(rows) != 2 {
		t.Fatalf("subset has %d rows, want 2", len(rows))
	}
	want, err := RunPairs(rows, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunPairs(rows, Opts{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		for leg, pair := range [][2]*Result{{want[i].Off, got[i].Off}, {want[i].On, got[i].On}} {
			if pair[0].Summary != pair[1].Summary || pair[0].Events != pair[1].Events {
				t.Fatalf("row %d leg %d: serial %+v != parallel %+v", i, leg, pair[0].Summary, pair[1].Summary)
			}
		}
	}
}
