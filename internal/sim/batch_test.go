package sim

import (
	"fmt"
	"testing"
)

// The batched slot-drain loop (runWheel/drainSlot/drainSlotTo) replaces
// the per-event peek/pop loop; these tests pin its edge cases — the
// horizon landing inside a slot, callbacks mutating the draining slot,
// a hook installed mid-run, a hooked stepped run against the reference
// heap — and the sortSlot partition fast path.

// TestHorizonInsideSlot puts two events in the same wheel slot
// with the run horizon strictly between them: the first must fire, the
// second must stay queued, and the clock must park exactly at the
// horizon.
func TestHorizonInsideSlot(t *testing.T) {
	s := New()
	base := Time(1 << wheelGranShift) // slot 1 start
	var fired []string
	s.ScheduleAt(base+1, func() { fired = append(fired, "a") })
	s.ScheduleAt(base+9, func() { fired = append(fired, "b") })
	end := base + 5
	n := s.RunUntil(end)
	if n != 1 || len(fired) != 1 || fired[0] != "a" {
		t.Fatalf("first phase: n=%d fired=%v", n, fired)
	}
	if s.Now() != end {
		t.Fatalf("clock = %v, want horizon %v", s.Now(), end)
	}
	if s.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", s.Pending())
	}
	n = s.Run()
	if n != 1 || len(fired) != 2 || fired[1] != "b" {
		t.Fatalf("second phase: n=%d fired=%v", n, fired)
	}
}

// TestCancelLaterEventInDrainingSlot cancels, from inside a callback, a
// same-timestamp event later in the slot being drained. The batched
// drain must still skip it.
func TestCancelLaterEventInDrainingSlot(t *testing.T) {
	s := New()
	tm := Time(3 << wheelGranShift)
	var fired []int
	var victim *Event
	s.ScheduleAt(tm, func() {
		fired = append(fired, 1)
		s.Cancel(victim)
	})
	victim = s.ScheduleAt(tm, func() { fired = append(fired, 2) })
	s.ScheduleAt(tm, func() { fired = append(fired, 3) })
	if n := s.Run(); n != 2 {
		t.Fatalf("executed %d events, want 2", n)
	}
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 3 {
		t.Fatalf("fired = %v, want [1 3]", fired)
	}
}

// TestPushIntoDrainingSlot schedules, from a draining event, more
// events into the same slot: one at the same timestamp (later seq) and
// one at a later timestamp still inside the slot. Both must execute in
// this run, in (time, seq) order.
func TestPushIntoDrainingSlot(t *testing.T) {
	s := New()
	tm := Time(5 << wheelGranShift)
	var fired []string
	s.ScheduleAt(tm, func() {
		fired = append(fired, "root")
		s.ScheduleAt(tm, func() { fired = append(fired, "same-time") })
		s.ScheduleAt(tm+3, func() { fired = append(fired, "same-slot") })
	})
	s.ScheduleAt(tm, func() { fired = append(fired, "sibling") })
	s.Run()
	want := []string{"root", "sibling", "same-time", "same-slot"}
	if fmt.Sprint(fired) != fmt.Sprint(want) {
		t.Fatalf("fired = %v, want %v", fired, want)
	}
}

// TestExecHookInstalledMidRun installs the FEL-order probe from a
// callback. The batched drains test the hook per event, so it sees the
// very next event — the rest of the installing slot included, whether a
// later instant of the slot or a same-instant sibling — and an
// uninstall takes effect just as promptly.
func TestExecHookInstalledMidRun(t *testing.T) {
	s := New()
	slotW := Time(1 << wheelGranShift)
	var hooked []Time
	for i := Time(1); i <= 4; i++ {
		at := i * 10 * slotW
		s.ScheduleAt(at, func() {})
		if i == 2 {
			s.ScheduleAt(at, func() {
				s.SetExecHook(func(tm Time, seq uint64) { hooked = append(hooked, tm) })
			})
			s.ScheduleAt(at, func() {})   // same instant, later seq
			s.ScheduleAt(at+3, func() {}) // same slot, later instant
		}
		if i == 4 {
			s.ScheduleAt(at, func() { s.SetExecHook(nil) })
			s.ScheduleAt(at+1, func() {})
		}
	}
	s.Run()
	want := []Time{20 * slotW, 20*slotW + 3, 30 * slotW, 40 * slotW, 40 * slotW}
	if fmt.Sprint(hooked) != fmt.Sprint(want) {
		t.Fatalf("hooked = %v, want %v", hooked, want)
	}
}

// TestHookedWheelMatchesHookedReference drives the checker's pattern —
// a hook on every event, the run stepped with RunUntil every 50 µs, so
// horizons land inside slots and the cursor parks and rewinds — on both
// kernels and demands the same (time, seq) sequence and per-step event
// counts from the hooked batched drain as from the reference heap's
// peek/pop loop.
func TestHookedWheelMatchesHookedReference(t *testing.T) {
	type key struct {
		t   Time
		seq uint64
	}
	trace := func(useRef bool) (keys []key, steps []uint64) {
		s := New()
		if useRef {
			s.UseReferenceFEL()
		}
		s.SetExecHook(func(tm Time, seq uint64) { keys = append(keys, key{tm, seq}) })
		rng := NewRNG(7)
		n := 0
		var victim *Event
		var victimSeq uint64
		var spawn func()
		spawn = func() {
			if n++; n >= 6000 {
				return
			}
			// Same-instant bursts, in-slot and cross-slot delays, the odd
			// far-future timer through the overflow heap, and cancels.
			d := Duration(rng.Intn(5)) * Duration(1<<wheelGranShift) / 3
			if rng.Intn(50) == 0 {
				d = 150 * Microsecond
			}
			s.Schedule(d, spawn)
			switch rng.Intn(6) {
			case 0:
				s.Schedule(d, spawn)
			case 1:
				if victim != nil && victim.Seq() == victimSeq { // not yet recycled
					s.Cancel(victim)
				}
				victim = s.Schedule(d+Duration(rng.Intn(100)), spawn)
				victimSeq = victim.Seq()
			}
		}
		s.ScheduleAt(0, spawn)
		for end := Time(0); s.Pending() > 0 && end < Time(50*Millisecond); {
			end = end.Add(50 * Microsecond)
			steps = append(steps, s.RunUntil(end))
		}
		return keys, steps
	}
	wk, ws := trace(false)
	rk, rs := trace(true)
	if len(wk) < 6000 || len(ws) < 3 {
		t.Fatalf("workload too small: %d events in %d steps", len(wk), len(ws))
	}
	if fmt.Sprint(ws) != fmt.Sprint(rs) {
		t.Fatalf("per-step event counts differ: wheel %v, reference %v", ws, rs)
	}
	if len(wk) != len(rk) {
		t.Fatalf("hooked %d events on the wheel, %d on the reference heap", len(wk), len(rk))
	}
	for i := range wk {
		if wk[i] != rk[i] {
			t.Fatalf("hook sequence diverges at %d: wheel %v, reference %v", i, wk[i], rk[i])
		}
	}
}

// TestStopMidSlot stops the run from the middle of a slot; the rest of
// the slot must survive for the next run.
func TestStopMidSlot(t *testing.T) {
	s := New()
	tm := Time(2 << wheelGranShift)
	var fired []int
	s.ScheduleAt(tm, func() { fired = append(fired, 1); s.Stop() })
	s.ScheduleAt(tm, func() { fired = append(fired, 2) })
	s.ScheduleAt(tm, func() { fired = append(fired, 3) })
	if n := s.Run(); n != 1 {
		t.Fatalf("first run executed %d, want 1", n)
	}
	if s.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", s.Pending())
	}
	if n := s.Run(); n != 2 {
		t.Fatalf("second run executed %d, want 2", n)
	}
	if fmt.Sprint(fired) != "[1 2 3]" {
		t.Fatalf("fired = %v", fired)
	}
}

// TestSortSlotTwoTimestampPartition drives the load-time partition fast
// path: two distinct timestamps in one slot, pushed interleaved so the
// reversed chain fails the sortedness check. Pop order must still be
// exact (time, seq).
func TestSortSlotTwoTimestampPartition(t *testing.T) {
	s := New()
	base := Time(7 << wheelGranShift)
	lo, hi := base+1, base+2
	var fired []string
	// Interleave hi/lo pushes: hi first so the buffer is unsorted.
	for i := 0; i < 20; i++ {
		tm, tag := hi, "hi"
		if i%2 == 1 {
			tm, tag = lo, "lo"
		}
		k := i
		s.ScheduleAt(tm, func() { fired = append(fired, fmt.Sprintf("%s%d", tag, k)) })
	}
	s.Run()
	if len(fired) != 20 {
		t.Fatalf("fired %d events", len(fired))
	}
	// All lo events (ascending schedule order) then all hi events.
	for i, f := range fired {
		wantTag := "lo"
		if i >= 10 {
			wantTag = "hi"
		}
		if f[:2] != wantTag {
			t.Fatalf("fired[%d] = %s, want tag %s (full: %v)", i, f, wantTag, fired)
		}
	}
	for i := 1; i < 10; i++ {
		if fired[i] <= fired[i-1] && len(fired[i]) == len(fired[i-1]) {
			t.Fatalf("lo group out of seq order: %v", fired[:10])
		}
	}
}

// TestSortSlotManyTimestampsFallback forces the comparison-sort
// fallback: more than two distinct timestamps in one slot, pushed in
// descending time order.
func TestSortSlotManyTimestampsFallback(t *testing.T) {
	s := New()
	base := Time(9 << wheelGranShift)
	var fired []Time
	for off := Time(8); off >= 1; off-- {
		at := base + off
		s.ScheduleAt(at, func() { fired = append(fired, at) })
	}
	s.Run()
	if len(fired) != 8 {
		t.Fatalf("fired %d", len(fired))
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] <= fired[i-1] {
			t.Fatalf("out of order: %v", fired)
		}
	}
}

// TestBatchedSameTimeMatchesReference cross-checks a same-timestamp-
// heavy random workload against the reference heap kernel: the batched
// wheel drain must produce a byte-identical execution trace.
func TestBatchedSameTimeMatchesReference(t *testing.T) {
	trace := func(useRef bool) []string {
		s := New()
		if useRef {
			s.UseReferenceFEL()
		}
		rng := NewRNG(42)
		var out []string
		n := 0
		var spawn func()
		spawn = func() {
			out = append(out, fmt.Sprintf("%d@%d", n, s.Now()))
			n++
			if n >= 4000 {
				return
			}
			// Cluster timestamps so slots hold many equal times plus
			// occasional two-instant straddles.
			d := Duration(rng.Intn(3)) * Duration(1<<wheelGranShift) / 2
			s.Schedule(d, spawn)
			if rng.Intn(4) == 0 {
				s.Schedule(d, spawn)
			}
		}
		s.ScheduleAt(0, spawn)
		s.RunUntil(Time(1 << 40))
		return out
	}
	a, b := trace(false), trace(true)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: wheel %d vs ref %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace diverges at %d: wheel %s vs ref %s", i, a[i], b[i])
		}
	}
}
