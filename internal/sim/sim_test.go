package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleAndRunOrder(t *testing.T) {
	s := New()
	var got []int
	s.Schedule(30*Nanosecond, func() { got = append(got, 3) })
	s.Schedule(10*Nanosecond, func() { got = append(got, 1) })
	s.Schedule(20*Nanosecond, func() { got = append(got, 2) })
	n := s.Run()
	if n != 3 {
		t.Fatalf("executed %d events", n)
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("order = %v", got)
		}
	}
	if s.Now() != Time(30*Nanosecond) {
		t.Fatalf("clock = %v", s.Now())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		s.Schedule(Microsecond, func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO: pos %d = %d", i, v)
		}
	}
}

func TestScheduleFromHandler(t *testing.T) {
	s := New()
	var fired []Time
	s.Schedule(Nanosecond, func() {
		fired = append(fired, s.Now())
		s.Schedule(2*Nanosecond, func() {
			fired = append(fired, s.Now())
		})
	})
	s.Run()
	if len(fired) != 2 || fired[0] != Time(Nanosecond) || fired[1] != Time(3*Nanosecond) {
		t.Fatalf("fired = %v", fired)
	}
}

func TestRunUntilHorizon(t *testing.T) {
	s := New()
	var count int
	for i := 1; i <= 10; i++ {
		s.Schedule(Duration(i)*Microsecond, func() { count++ })
	}
	n := s.RunUntil(Time(5 * Microsecond))
	if n != 5 || count != 5 {
		t.Fatalf("ran %d events, count %d", n, count)
	}
	if s.Now() != Time(5*Microsecond) {
		t.Fatalf("clock = %v", s.Now())
	}
	// Remaining events still runnable.
	n = s.RunUntil(Time(100 * Microsecond))
	if n != 5 || count != 10 {
		t.Fatalf("second run: %d events, count %d", n, count)
	}
	// Clock advances to horizon when queue drains.
	if s.Now() != Time(100*Microsecond) {
		t.Fatalf("clock = %v", s.Now())
	}
}

func TestRunUntilExactBoundaryInclusive(t *testing.T) {
	s := New()
	ran := false
	s.Schedule(Microsecond, func() { ran = true })
	s.RunUntil(Time(Microsecond))
	if !ran {
		t.Fatal("event at the horizon must run")
	}
}

func TestCancel(t *testing.T) {
	s := New()
	ran := false
	e := s.Schedule(Nanosecond, func() { ran = true })
	s.Cancel(e)
	s.Run()
	if ran {
		t.Fatal("cancelled event ran")
	}
	if !e.Cancelled() {
		t.Fatal("event not marked cancelled")
	}
	s.Cancel(e) // double-cancel is a no-op
	s.Cancel(nil)
}

func TestCancelFromHandler(t *testing.T) {
	s := New()
	ran := false
	e := s.Schedule(2*Nanosecond, func() { ran = true })
	s.Schedule(Nanosecond, func() { s.Cancel(e) })
	s.Run()
	if ran {
		t.Fatal("event cancelled mid-run still ran")
	}
}

func TestStop(t *testing.T) {
	s := New()
	count := 0
	for i := 1; i <= 10; i++ {
		s.Schedule(Duration(i)*Nanosecond, func() {
			count++
			if count == 3 {
				s.Stop()
			}
		})
	}
	s.Run()
	if count != 3 {
		t.Fatalf("count = %d after Stop", count)
	}
	if s.Pending() != 7 {
		t.Fatalf("pending = %d", s.Pending())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := New()
	s.Schedule(Microsecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		s.ScheduleAt(Time(0), func() {})
	})
	s.Run()
}

func TestScheduleNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New().Schedule(0, nil)
}

func TestProcessedCounter(t *testing.T) {
	s := New()
	for i := 0; i < 5; i++ {
		s.Schedule(Duration(i)*Nanosecond, func() {})
	}
	e := s.Schedule(10*Nanosecond, func() {})
	s.Cancel(e)
	s.Run()
	if s.Processed() != 5 {
		t.Fatalf("Processed = %d", s.Processed())
	}
}

func TestZeroDelaySelfScheduleTerminatesWithStop(t *testing.T) {
	s := New()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n >= 1000 {
			s.Stop()
			return
		}
		s.Schedule(0, tick)
	}
	s.Schedule(0, tick)
	s.Run()
	if n != 1000 {
		t.Fatalf("n = %d", n)
	}
	if s.Now() != 0 {
		t.Fatalf("zero-delay chain advanced clock to %v", s.Now())
	}
}

// countAction increments a counter when fired.
type countAction struct{ n *int }

func (a countAction) Act() { *a.n++ }

func TestScheduleAction(t *testing.T) {
	s := New()
	n := 0
	a := countAction{&n}
	s.ScheduleAction(2*Nanosecond, a)
	s.ScheduleAction(Nanosecond, a)
	s.Run()
	if n != 2 {
		t.Fatalf("actions fired %d times", n)
	}
	if s.Processed() != 2 {
		t.Fatalf("processed = %d", s.Processed())
	}
}

func TestScheduleActionNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New().ScheduleAction(0, nil)
}

func TestActionsAndClosuresInterleaveFIFO(t *testing.T) {
	s := New()
	var order []int
	s.Schedule(Nanosecond, func() { order = append(order, 0) })
	s.ScheduleAction(Nanosecond, appendAction{&order, 1})
	s.Schedule(Nanosecond, func() { order = append(order, 2) })
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v", order)
		}
	}
}

type appendAction struct {
	dst *[]int
	v   int
}

func (a appendAction) Act() { *a.dst = append(*a.dst, a.v) }

func TestEventRecyclingSeqGuards(t *testing.T) {
	// After an event fires its handle may be recycled for a later
	// schedule; the sequence number distinguishes the incarnations.
	s := New()
	e1 := s.Schedule(Nanosecond, func() {})
	seq1 := e1.Seq()
	s.Run()
	e2 := s.Schedule(Nanosecond, func() {})
	if e2 == e1 && e2.Seq() == seq1 {
		t.Fatal("recycled event kept its old sequence number")
	}
	if e2.Seq() <= seq1 {
		t.Fatal("sequence numbers must increase")
	}
	s.Run()
}

func TestRecyclingStressKeepsOrder(t *testing.T) {
	// Heavy schedule/fire churn through the pool must preserve the
	// (time, seq) discipline.
	s := New()
	fired := 0
	var tick func()
	depth := 0
	tick = func() {
		fired++
		depth++
		if depth < 5000 {
			s.Schedule(Duration(1+fired%7)*Nanosecond, tick)
		}
	}
	for i := 0; i < 8; i++ {
		s.Schedule(Duration(i)*Nanosecond, tick)
	}
	prev := Time(-1)
	for s.Pending() > 0 {
		before := s.Now()
		s.RunUntil(s.Now().Add(10 * Nanosecond))
		if s.Now() < before || s.Now() < prev {
			t.Fatal("clock went backwards")
		}
		prev = s.Now()
	}
	if fired < 5000 {
		t.Fatalf("fired = %d", fired)
	}
}

// Property: events always fire in nondecreasing time order, whatever the
// insertion order, and equal times fire in insertion order.
func TestEventOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		s := New()
		type rec struct {
			tm  Time
			seq int
		}
		var fired []rec
		for i, d := range delays {
			i := i
			tm := Time(Duration(d) * Nanosecond)
			s.ScheduleAt(tm, func() { fired = append(fired, rec{tm, i}) })
		}
		s.Run()
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i].tm < fired[i-1].tm {
				return false
			}
			if fired[i].tm == fired[i-1].tm && fired[i].seq < fired[i-1].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Exhaustive FEL stress: random pushes and pops always yield sorted
// output equal to a reference sort. Times span many wheel slots and
// reach past the wheel horizon, so ordering across the slot boundaries
// and through the overflow heap is covered.
func TestHeapMatchesSortReference(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	// Mix of ranges: sub-slot (dense tie-heavy), mid-wheel, and beyond
	// the ~67 us horizon into the overflow heap.
	ranges := []int64{100, 1 << wheelGranShift, 500_000, 200_000_000}
	for trial := 0; trial < 50; trial++ {
		q := &eventQueue{}
		q.init()
		span := ranges[trial%len(ranges)]
		n := r.Intn(500)
		times := make([]int64, n)
		for i := range times {
			tm := r.Int63n(span)
			times[i] = tm
			q.push(&Event{time: Time(tm), seq: uint64(i)})
		}
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		for i := 0; i < n; i++ {
			e := q.pop()
			if e == nil || int64(e.time) != times[i] {
				t.Fatalf("trial %d pos %d: FEL order diverges from sort", trial, i)
			}
		}
		if q.pop() != nil {
			t.Fatal("pop from empty FEL returned event")
		}
		if q.peek() != nil {
			t.Fatal("peek on empty FEL returned event")
		}
	}
}

// Interleaved FEL stress against a reference model: pops must always
// yield the (time, seq) minimum of the current contents, under random
// push/pop interleaving. Pushes may land behind the cursor (the
// schedule-after-horizon-return case), exercising the rewind path.
func TestWheelInterleavedMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		q := &eventQueue{}
		q.init()
		var ref []*Event
		var seq uint64
		span := int64(1+trial) * 40_000_000 // up to ~1.2 ms: deep overflow use
		for op := 0; op < 4000; op++ {
			if r.Intn(3) > 0 || len(ref) == 0 {
				e := &Event{time: Time(r.Int63n(span)), seq: seq}
				seq++
				q.push(e)
				ref = append(ref, e)
				continue
			}
			best := 0
			for i, e := range ref {
				if eventLess(e, ref[best]) {
					best = i
				}
			}
			got := q.pop()
			if got != ref[best] {
				t.Fatalf("trial %d op %d: pop = %+v, want %+v", trial, op, got, ref[best])
			}
			ref[best] = ref[len(ref)-1]
			ref = ref[:len(ref)-1]
			if q.Len() != len(ref) {
				t.Fatalf("trial %d op %d: Len = %d, want %d", trial, op, q.Len(), len(ref))
			}
		}
		for len(ref) > 0 {
			best := 0
			for i, e := range ref {
				if eventLess(e, ref[best]) {
					best = i
				}
			}
			if got := q.pop(); got != ref[best] {
				t.Fatalf("trial %d drain: pop diverges from reference", trial)
			}
			ref[best] = ref[len(ref)-1]
			ref = ref[:len(ref)-1]
		}
		if q.pop() != nil {
			t.Fatal("pop from drained FEL returned event")
		}
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	s := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Schedule(Duration(i%1000)*Nanosecond, func() {})
		if s.Pending() > 4096 {
			s.RunUntil(s.Now().Add(500 * Nanosecond))
		}
	}
	s.Run()
}

// nopAction is a reusable allocation-free callback for pool tests.
type nopAction struct{ fired int }

func (a *nopAction) Act() { a.fired++ }

// The event recycle pool keeps every released handle: a burst larger
// than any chunk must be fully retained on drain, so an equal second
// burst recycles every handle instead of allocating.
func TestEventPoolBurstThenDrain(t *testing.T) {
	s := New()
	act := &nopAction{}
	const burst = 10000 // well above the old fixed 4096 cap
	for i := 0; i < burst; i++ {
		s.ScheduleActionAt(Time(i)*17, act)
	}
	if got := s.PeakPending(); got != burst {
		t.Fatalf("PeakPending = %d, want %d", got, burst)
	}
	s.Run()
	if len(s.pool) != burst {
		t.Fatalf("pool holds %d handles after drain, want %d", len(s.pool), burst)
	}

	// Second burst: every schedule must draw from the pool.
	base := s.Now()
	for i := 0; i < burst; i++ {
		s.ScheduleActionAt(base.Add(Duration(i+1)*Nanosecond), act)
	}
	if len(s.pool) != 0 {
		t.Fatalf("second burst left %d pooled handles unclaimed", len(s.pool))
	}
	s.Run()
	if len(s.pool) != burst {
		t.Fatalf("pool holds %d handles after second drain, want %d", len(s.pool), burst)
	}
	if act.fired != 2*burst {
		t.Fatalf("fired %d events, want %d", act.fired, 2*burst)
	}
}
