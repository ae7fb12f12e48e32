package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// key is an executed event's position in the (time, seq) order.
type key struct {
	t   Time
	seq uint64
}

// recorder collects the keys of executed events through the exec hook,
// failing on any step that does not advance in (time, seq) order — the
// invariant checker's FEL-order probe.
type recorder struct {
	t    *testing.T
	keys []key
}

func (r *recorder) hook(t Time, seq uint64) {
	if n := len(r.keys); n > 0 {
		last := r.keys[n-1]
		if t < last.t || (t == last.t && seq <= last.seq) {
			r.t.Fatalf("FEL order broken: (%v, %d) after (%v, %d)", t, seq, last.t, last.seq)
		}
	}
	r.keys = append(r.keys, key{t, seq})
}

// noop is an action that does nothing.
type noop struct{}

func (noop) Act() {}

// TestReserveTakesOneSeq: a reserved key occupies exactly the position
// an event scheduled in its place would have had; its neighbours keep
// their sequence numbers whether or not it is ever materialised.
func TestReserveTakesOneSeq(t *testing.T) {
	s := New()
	a := s.ScheduleAction(10, noop{})
	k := s.Reserve()
	b := s.ScheduleAction(10, noop{})
	if a.Seq() != 0 || k != 1 || b.Seq() != 2 {
		t.Fatalf("seqs %d, %d, %d; want 0, 1, 2", a.Seq(), k, b.Seq())
	}
	rec := &recorder{t: t}
	s.SetExecHook(rec.hook)
	s.ScheduleReserved(10, k, noop{})
	s.Run()
	want := []key{{10, 0}, {10, 1}, {10, 2}}
	if len(rec.keys) != 3 || rec.keys[0] != want[0] || rec.keys[1] != want[1] || rec.keys[2] != want[2] {
		t.Fatalf("executed %v, want %v", rec.keys, want)
	}
}

// lazyProgram is a random schedule in which some events are reserved
// first and materialised later, or never. Those events are no-ops (the
// only kind the model treats this way), so running the program eagerly —
// scheduling every event the moment its key is issued — is the
// specification: every key must come out equal, and the lazy run must
// execute exactly the eager order minus the no-ops nobody asked for.
type lazyProgram struct {
	steps []lazyStep
}

// lazyStep runs inside the callback of event `from` (-1: before Run).
// It issues the key for event `id` firing `delay` later; armAt names
// the event in whose callback the key is materialised if it has not
// passed by then (-1: scheduled at once, -2: never materialised).
// Events with armAt != -1 are no-op leaves: nothing is created or
// materialised from their callbacks.
type lazyStep struct {
	from, id int
	delay    Duration
	armAt    int
}

type lazyRun struct {
	s       *Simulator
	eager   bool
	byFrom  map[int][]lazyStep
	armedBy map[int][]int // event id → leaves it materialises
	keyOf   map[int]key
	order   []int // executed ids
}

type lazyAct struct {
	r  *lazyRun
	id int
}

func (a lazyAct) Act() { a.r.exec(a.id) }

func (r *lazyRun) exec(id int) {
	if id >= 0 {
		r.order = append(r.order, id)
	}
	for _, st := range r.byFrom[id] {
		t := r.s.Now().Add(st.delay)
		if r.eager || st.armAt == -1 {
			r.keyOf[st.id] = key{t, r.s.ScheduleActionAt(t, lazyAct{r, st.id}).Seq()}
		} else {
			r.keyOf[st.id] = key{t, r.s.Reserve()}
		}
	}
	if r.eager {
		return
	}
	for _, leaf := range r.armedBy[id] {
		// Asked too early (key not issued yet) or too late (key passed):
		// the no-op never exists.
		if k, ok := r.keyOf[leaf]; ok && !r.s.Passed(k.t, k.seq) {
			r.s.ScheduleReserved(k.t, k.seq, lazyAct{r, leaf})
		}
	}
}

func runLazy(t *testing.T, p *lazyProgram, eager, ref bool, slices []Time) *lazyRun {
	t.Helper()
	r := &lazyRun{
		s: New(), eager: eager,
		byFrom: map[int][]lazyStep{}, armedBy: map[int][]int{}, keyOf: map[int]key{},
	}
	if ref {
		r.s.UseReferenceFEL()
	}
	for _, st := range p.steps {
		r.byFrom[st.from] = append(r.byFrom[st.from], st)
		if st.armAt >= 0 {
			r.armedBy[st.armAt] = append(r.armedBy[st.armAt], st.id)
		}
	}
	if ref || len(slices) > 0 {
		// The plain wheel run goes through the batched loop; every
		// other variant is hooked and checks FEL order as it goes.
		r.s.SetExecHook((&recorder{t: t}).hook)
	}
	r.exec(-1)
	for _, end := range slices {
		r.s.RunUntil(end)
	}
	r.s.Run()
	return r
}

// genLazyProgram builds a random program whose delays mix same-instant
// ties, same-slot neighbours, mid-wheel and overflow distances, so keys
// are materialised into the slot being drained, into chains not yet
// loaded (out of seq order) and into the overflow heap.
func genLazyProgram(rng *rand.Rand, n int) *lazyProgram {
	delays := []Duration{0, 0, 1, 7, 1 << wheelGranShift, 3 << wheelGranShift, 40_000, 900_000, 90_000_000}
	p := &lazyProgram{}
	var parents []int // events allowed to create and materialise others
	for id := 0; id < n; id++ {
		st := lazyStep{from: -1, id: id, delay: delays[rng.Intn(len(delays))], armAt: -1}
		if len(parents) > 0 && rng.Intn(8) > 0 {
			st.from = parents[rng.Intn(len(parents))]
		}
		switch r := rng.Intn(10); {
		case r < 4 && len(parents) > 0:
			st.armAt = parents[rng.Intn(len(parents))]
		case r == 4:
			st.armAt = -2
		default:
			parents = append(parents, id)
		}
		p.steps = append(p.steps, st)
	}
	return p
}

// TestReservedKeysMatchEagerSchedule is the kernel half of "every tie
// stays where it was": materialising an event later under its reserved
// key yields the execution order of scheduling it at once — on the
// wheel's batched loop, on its hooked loop cut into RunUntil slices,
// and on the reference heap.
func TestReservedKeysMatchEagerSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(20260928))
	var materialised, elided int
	for trial := 0; trial < 200; trial++ {
		p := genLazyProgram(rng, 5+rng.Intn(120))
		var slices []Time
		for at := Time(0); len(slices) < 6; {
			at = at.Add(Duration(rng.Intn(3) * rng.Intn(400_000)))
			slices = append(slices, at)
		}
		eager := runLazy(t, p, true, false, nil)
		for name, lazy := range map[string]*lazyRun{
			"wheel":     runLazy(t, p, false, false, nil),
			"sliced":    runLazy(t, p, false, false, slices),
			"reference": runLazy(t, p, false, true, nil),
		} {
			for id, k := range eager.keyOf {
				if lazy.keyOf[id] != k {
					t.Fatalf("trial %d %s: event %d keyed %v, eager %v", trial, name, id, lazy.keyOf[id], k)
				}
			}
			ran := map[int]bool{}
			for _, id := range lazy.order {
				ran[id] = true
			}
			i := 0
			for _, id := range eager.order {
				if !ran[id] {
					if p.steps[id].armAt == -1 {
						t.Fatalf("trial %d %s: scheduled event %d never ran", trial, name, id)
					}
					elided++
					continue
				}
				if lazy.order[i] != id {
					t.Fatalf("trial %d %s: position %d ran event %d, eager order has %d", trial, name, i, lazy.order[i], id)
				}
				if p.steps[id].armAt != -1 {
					materialised++
				}
				i++
			}
			if i != len(lazy.order) {
				t.Fatalf("trial %d %s: %d events ran, %d expected", trial, name, len(lazy.order), i)
			}
		}
	}
	if materialised < 1000 || elided < 1000 {
		t.Fatalf("corpus too thin: %d keys materialised, %d elided", materialised, elided)
	}
}

// TestExplicitKeysIntoEverySlotKind pins the three insertion sites by
// hand: a key into the slot being drained, a key into a chain not yet
// loaded whose other events carry higher sequence numbers, and the same
// through the reference heap.
func TestExplicitKeysIntoEverySlotKind(t *testing.T) {
	for _, ref := range []bool{false, true} {
		s := New()
		if ref {
			s.UseReferenceFEL()
		}
		rec := &recorder{t: t}
		s.SetExecHook(rec.hook)
		const far = Time(5 << wheelGranShift)
		kNear := s.Reserve()                       // 0: fires at 20, in the first slot
		kFar := s.Reserve()                        // 1: fires at far+3, in an unloaded slot
		s.ScheduleActionAt(10, funcAction(func() { // seq 2, mid-drain of slot 0
			s.ScheduleActionAt(20, noop{}) // seq 3, same instant as kNear
			s.ScheduleReserved(20, kNear, noop{})
			s.ScheduleActionAt(far+3, noop{}) // seq 4
			s.ScheduleReserved(far+3, kFar, noop{})
			s.ScheduleActionAt(far+3, noop{}) // seq 5
		}))
		s.Run()
		want := []key{{10, 2}, {20, 0}, {20, 3}, {far + 3, 1}, {far + 3, 4}, {far + 3, 5}}
		if len(rec.keys) != len(want) {
			t.Fatalf("ref=%v: executed %v, want %v", ref, rec.keys, want)
		}
		for i := range want {
			if rec.keys[i] != want[i] {
				t.Fatalf("ref=%v: executed %v, want %v", ref, rec.keys, want)
			}
		}
	}
}

// TestHeapMatchesSortReferenceExplicitKeys extends the FEL-vs-sort
// check to keys that arrive out of sequence order: half the events are
// pushed up front, the queue is drained part-way (so a slot is loaded
// and mid-drain), and the rest — lower sequence numbers, times at or
// after the drain point — are pushed then.
func TestHeapMatchesSortReferenceExplicitKeys(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	ranges := []int64{100, 1 << wheelGranShift, 500_000, 200_000_000}
	for trial := 0; trial < 60; trial++ {
		q := &eventQueue{}
		q.init()
		span := ranges[trial%len(ranges)]
		n := 2 + r.Intn(400)
		late := make([]*Event, 0, n)
		var all []*Event
		for i := 0; i < n; i++ {
			e := &Event{time: Time(r.Int63n(span)), seq: uint64(i)}
			all = append(all, e)
			if i%2 == 0 {
				late = append(late, e) // reserved now, inserted later
			} else {
				q.push(e)
			}
		}
		sort.Slice(all, func(i, j int) bool { return eventLess(all[i], all[j]) })
		var got []*Event
		for i := r.Intn(n/2 + 1); i > 0; i-- {
			if e := q.pop(); e != nil {
				got = append(got, e)
			}
		}
		var floor *Event
		if len(got) > 0 {
			floor = got[len(got)-1]
		}
		inserted := map[*Event]bool{}
		for _, e := range late {
			if floor != nil && !eventLess(floor, e) {
				continue // its key has passed: never materialised
			}
			q.push(e)
			inserted[e] = true
		}
		for e := q.pop(); e != nil; e = q.pop() {
			got = append(got, e)
		}
		i := 0
		for _, e := range all {
			if e.seq%2 == 0 && !inserted[e] {
				continue
			}
			if i >= len(got) || got[i] != e {
				t.Fatalf("trial %d pos %d: FEL order diverges from sort", trial, i)
			}
			i++
		}
		if i != len(got) {
			t.Fatalf("trial %d: popped %d events, want %d", trial, len(got), i)
		}
	}
}

// TestPassed walks the kernel position through every way a run can end.
func TestPassed(t *testing.T) {
	s := New()
	var inside []bool
	k := s.Reserve()                            // seq 0, asked about at time 100
	s.ScheduleActionAt(100, funcAction(func() { // seq 1
		// Same instant: seq 0 is behind the executing event, seq 2 ahead.
		inside = append(inside, s.Passed(100, k), s.Passed(100, 2), s.Passed(99, 7), s.Passed(101, 0))
	}))
	s.Reserve() // seq 2
	if s.Passed(0, k) {
		t.Fatal("a key at the clock read as passed before any run")
	}
	s.RunUntil(100)
	if want := []bool{true, false, true, false}; len(inside) != 4 || inside[0] != want[0] || inside[1] != want[1] || inside[2] != want[2] || inside[3] != want[3] {
		t.Fatalf("inside the callback Passed = %v, want %v", inside, want)
	}
	// The run reached its horizon at 100: every key issued so far at or
	// before it has had its turn, later instants have not.
	if !s.Passed(100, 2) || s.Passed(101, 0) {
		t.Fatal("horizon return: keys at the horizon must read passed, later ones not")
	}
	// A key issued after the return, at the horizon instant, is ahead.
	k3 := s.Reserve()
	if s.Passed(100, k3) {
		t.Fatal("a key issued after the horizon return read as passed")
	}
	s.ScheduleReserved(100, k3, noop{}) // legal: it has not passed

	// Stop leaves the position at the stopping event.
	s.ScheduleActionAt(200, funcAction(s.Stop)) // seq 4
	k5 := s.Reserve()
	s.Run()
	if s.Now() != 200 || !s.Passed(200, 3) || s.Passed(200, k5) {
		t.Fatalf("after Stop at (200, 4): now %v, Passed(200,3)=%v Passed(200,%d)=%v",
			s.Now(), s.Passed(200, 3), k5, s.Passed(200, k5))
	}
	// Exhausting the event list (Run) leaves it at the last event too:
	// unmaterialised keys ahead of it never get a turn.
	s.ScheduleActionAt(300, noop{}) // seq 6
	k7 := s.Reserve()
	s.Run()
	if s.Passed(300, k7) || s.Passed(400, k7) || !s.Passed(300, 5) {
		t.Fatal("after exhaustion the position must rest on the last executed event")
	}
	// A bounded run over an empty list still reaches its horizon.
	s.RunUntil(350)
	if !s.Passed(300, k7) || s.Passed(351, k7) || s.Now() != 350 {
		t.Fatal("RunUntil over an empty list must advance the position to its horizon")
	}
	// A horizon behind the clock moves nothing.
	k8 := s.Reserve()
	s.RunUntil(10)
	if s.Now() != 350 || s.Passed(350, k8) {
		t.Fatal("RunUntil behind the clock moved the kernel position")
	}
}

// TestPassedSurvivesRestore: the position is kernel state; a restored
// kernel answers exactly as the one that was snapshotted.
func TestPassedSurvivesRestore(t *testing.T) {
	s := New()
	s.ScheduleActionAt(50, noop{})
	k := s.Reserve()
	s.RunUntil(50)
	late := s.Reserve()
	ks := s.ExportKernel()

	r := New()
	r.BeginRestore(ks)
	if r.Passed(50, k) != s.Passed(50, k) || r.Passed(50, late) != s.Passed(50, late) {
		t.Fatal("restored kernel disagrees on Passed")
	}
	if !r.Passed(50, k) || r.Passed(50, late) {
		t.Fatal("key before the horizon return must be passed, key after it not")
	}
	r.ScheduleReserved(50, late, noop{})
	if n := r.Run(); n != 1 {
		t.Fatalf("restored event did not run (%d executed)", n)
	}
}

func TestScheduleReservedPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	s := New()
	k := s.Reserve()
	s.ScheduleActionAt(10, noop{})
	s.RunUntil(10)
	mustPanic("nil action", func() { s.ScheduleReserved(20, k, nil) })
	mustPanic("unissued seq", func() { s.ScheduleReserved(20, 99, noop{}) })
	mustPanic("key in the past", func() { s.ScheduleReserved(9, k, noop{}) })
	mustPanic("key at the clock, already passed", func() { s.ScheduleReserved(10, k, noop{}) })
	s.ScheduleReserved(11, k, noop{}) // still ahead: fine
}

// TestScheduleReservedIsPooled: the explicit-key path draws from the
// same recycle pool as every other schedule call.
func TestScheduleReservedIsPooled(t *testing.T) {
	s := New()
	for i := 0; i < 8; i++ {
		s.ScheduleAction(1, noop{})
	}
	s.Run()
	allocs := testing.AllocsPerRun(200, func() {
		k := s.Reserve()
		s.ScheduleReserved(s.Now().Add(5), k, noop{})
		s.Run()
	})
	if allocs != 0 {
		t.Fatalf("ScheduleReserved allocates %.1f objects per event", allocs)
	}
}
