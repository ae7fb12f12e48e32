package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// These tests pin the wheel's behind-cursor and at-cursor edge cases:
// a push landing exactly in the cursor's current slot — including one
// arriving mid-drain, after some of the slot's events already popped —
// must take its exact eventLess position among the events still
// pending, never behind later-time events and never lost. The paths
// under test are eventQueue.push's `d == 0 && curLoaded` branch
// (sortedInsert into the live scratch) and rewind's undrained-tail
// restoration plus out-of-horizon chain eviction.

// drain pops every remaining event and returns them in pop order.
func drain(q *eventQueue) []*Event {
	var out []*Event
	for {
		e := q.pop()
		if e == nil {
			return out
		}
		out = append(out, e)
	}
}

// requireOrder fails unless events are in strict eventLess order.
func requireOrder(t *testing.T, events []*Event) {
	t.Helper()
	for i := 1; i < len(events); i++ {
		if !eventLess(events[i-1], events[i]) {
			t.Fatalf("pop %d out of order: (t=%d,seq=%d) before (t=%d,seq=%d)",
				i, events[i-1].time, events[i-1].seq, events[i].time, events[i].seq)
		}
	}
}

// TestWheelPushAtCursorSlotMidDrain covers the exact satellite case: a
// slot is partially drained when new events land in it — one at the
// very time of an already-popped event, one between the survivors. The
// newcomers must pop in eventLess position among the survivors, not be
// parked behind the drained scratch or deferred a full wheel lap.
func TestWheelPushAtCursorSlotMidDrain(t *testing.T) {
	var q eventQueue
	q.init()
	slotW := Time(1) << wheelGranShift
	// Three events inside one slot.
	q.push(&Event{time: 5, seq: 1})
	q.push(&Event{time: slotW - 1, seq: 2})
	q.push(&Event{time: 10, seq: 3})
	if e := q.pop(); e.time != 5 || e.seq != 1 {
		t.Fatalf("first pop = (t=%d,seq=%d)", e.time, e.seq)
	}
	// Mid-drain pushes into the same (now current and loaded) slot:
	// same time as the drained event, and between the survivors.
	q.push(&Event{time: 5, seq: 4})
	q.push(&Event{time: 11, seq: 5})
	got := drain(&q)
	want := []struct {
		time Time
		seq  uint64
	}{{5, 4}, {10, 3}, {11, 5}, {slotW - 1, 2}}
	if len(got) != len(want) {
		t.Fatalf("drained %d events, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].time != w.time || got[i].seq != w.seq {
			t.Fatalf("pop %d = (t=%d,seq=%d), want (t=%d,seq=%d)",
				i, got[i].time, got[i].seq, w.time, w.seq)
		}
	}
}

// TestWheelRewindToOvershotCursorSlot covers the rewind interaction: the
// cursor has overshot (parked on a far event's slot by peek), the far
// slot is loaded, and a push lands behind it — then another lands
// exactly in the rewound cursor's slot. Order must still be global
// eventLess order, and the far slot's undrained tail must survive the
// rewind.
func TestWheelRewindToOvershotCursorSlot(t *testing.T) {
	var q eventQueue
	q.init()
	slotW := Time(1) << wheelGranShift
	far := slotW * 100
	q.push(&Event{time: far, seq: 1})
	q.push(&Event{time: far + 3, seq: 2})
	// peek advances the cursor to the far slot and loads it.
	if e := q.peek(); e.time != far {
		t.Fatalf("peek = t=%d, want %d", e.time, far)
	}
	// Behind-cursor push: rewinds, returning the far slot's (entirely
	// undrained) scratch to its chain.
	q.push(&Event{time: slotW * 2, seq: 3})
	// And one exactly at the rewound cursor's slot time.
	q.push(&Event{time: slotW * 2, seq: 4})
	got := drain(&q)
	want := []uint64{3, 4, 1, 2}
	if len(got) != len(want) {
		t.Fatalf("drained %d events, want %d", len(got), len(want))
	}
	for i, seq := range want {
		if got[i].seq != seq {
			t.Fatalf("pop %d = seq %d, want %d", i, got[i].seq, seq)
		}
	}
	requireOrder(t, got)
}

// TestWheelRewindMidDrainWithEviction stresses the hardest composite:
// a partially drained current slot, a rewind far enough back that the
// old slot's index now aliases an out-of-horizon absolute slot (so its
// returned tail must be evicted to overflow), and a fresh push exactly
// at the new cursor slot. Everything must come back in eventLess order
// with nothing lost.
func TestWheelRewindMidDrainWithEviction(t *testing.T) {
	var q eventQueue
	q.init()
	slotW := Time(1) << wheelGranShift
	base := slotW * Time(wheelSlots) * 3 // park the cursor deep in lap 3
	q.push(&Event{time: base + 1, seq: 1})
	q.push(&Event{time: base + 2, seq: 2})
	q.push(&Event{time: base + 3, seq: 3})
	if e := q.pop(); e.seq != 1 {
		t.Fatalf("first pop = seq %d", e.seq)
	}
	// Rewind more than a full wheel span: the old slot's remaining tail
	// (seqs 2, 3) is now beyond the shrunk horizon and must be evicted.
	low := base - slotW*Time(wheelSlots)*2
	q.push(&Event{time: low, seq: 4})
	// Exactly at the rewound cursor's slot.
	q.push(&Event{time: low + 1, seq: 5})
	got := drain(&q)
	want := []uint64{4, 5, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("drained %d events, want %d", len(got), len(want))
	}
	for i, seq := range want {
		if got[i].seq != seq {
			t.Fatalf("pop %d = seq %d, want %d", i, got[i].seq, seq)
		}
	}
	requireOrder(t, got)
}

// TestWheelCursorSlotRandomized is the property form: random interleaved
// pushes and pops where pushes are biased to land exactly in the
// cursor's current slot (including exactly at the last-popped time, the
// satellite's edge case), checked against a shadow pending-set model —
// every pop must return the eventLess minimum of what is pending at
// that moment, and nothing may be lost or duplicated.
func TestWheelCursorSlotRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		var q eventQueue
		q.init()
		var seq uint64
		var lastPopped Time
		var pending []*Event // shadow model of the queue's content
		pushes, pops := 0, 0
		push := func(tm Time) {
			seq++
			e := &Event{time: tm, seq: seq}
			pending = append(pending, e)
			q.push(e)
			pushes++
		}
		for i := 0; i < 600; i++ {
			switch rng.Intn(3) {
			case 0: // push at/near the last-popped time (cursor's slot)
				push(lastPopped + Time(rng.Int63n(4)))
			case 1: // push anywhere nearby, occasionally far
				d := Time(rng.Int63n(int64(3 * Microsecond)))
				if rng.Intn(20) == 0 {
					d = Time(rng.Int63n(int64(300 * Microsecond)))
				}
				push(lastPopped + d)
			case 2:
				e := q.pop()
				if len(pending) == 0 {
					if e != nil {
						t.Fatalf("trial %d: pop from empty queue returned (t=%d,seq=%d)", trial, e.time, e.seq)
					}
					continue
				}
				min := 0
				for j := 1; j < len(pending); j++ {
					if eventLess(pending[j], pending[min]) {
						min = j
					}
				}
				want := pending[min]
				if e == nil {
					t.Fatalf("trial %d: pop returned nil with %d pending", trial, len(pending))
				}
				if e != want {
					t.Fatalf("trial %d pop %d: got (t=%d,seq=%d), want minimum (t=%d,seq=%d)",
						trial, pops, e.time, e.seq, want.time, want.seq)
				}
				pending = append(pending[:min], pending[min+1:]...)
				lastPopped = e.time
				pops++
			}
		}
		rest := drain(&q)
		if len(rest) != len(pending) {
			t.Fatalf("trial %d: %d left in queue, shadow holds %d", trial, len(rest), len(pending))
		}
		sort.Slice(pending, func(i, j int) bool { return eventLess(pending[i], pending[j]) })
		for i, e := range rest {
			if e != pending[i] {
				t.Fatalf("trial %d: final drain %d = (t=%d,seq=%d), want (t=%d,seq=%d)",
					trial, i, e.time, e.seq, pending[i].time, pending[i].seq)
			}
		}
	}
}

// TestBigSlotSortMatchesReference pins sortEvents' sub-slot distribution
// on slots above sortThreshold: events over several sub-slots, with
// equal-time ties and a seq order the pushes scrambled, must come out
// in exact (time, seq) order — once sorted directly and once through a
// rewind, whose returned tail reloads as a chain in reverse order.
func TestBigSlotSortMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(35))
	slotW := int64(1) << wheelGranShift
	for trial := 0; trial < 40; trial++ {
		n := sortThreshold + 1 + r.Intn(300)
		base := slotW * int64(1+r.Intn(50))
		// A few shared instants make equal-time ties in most sub-slots.
		instants := make([]int64, 1+r.Intn(n))
		for i := range instants {
			instants[i] = base + r.Int63n(slotW)
		}
		events := make([]*Event, n)
		for i, seq := range r.Perm(n) {
			events[i] = &Event{time: Time(instants[r.Intn(len(instants))]), seq: uint64(seq)}
		}
		want := append([]*Event(nil), events...)
		sort.Slice(want, func(i, j int) bool { return eventLess(want[i], want[j]) })

		var q eventQueue
		q.init()
		got := append([]*Event(nil), events...)
		q.sortEvents(got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: direct sort pos %d = (t=%d,seq=%d), want (t=%d,seq=%d)",
					trial, i, got[i].time, got[i].seq, want[i].time, want[i].seq)
			}
		}

		// Through the wheel: load the slot, rewind behind it, drain.
		var w eventQueue
		w.init()
		for _, e := range events {
			e.next = nil
			w.push(e)
		}
		if w.peek() != want[0] {
			t.Fatalf("trial %d: loaded slot's head is not the minimum", trial)
		}
		early := &Event{time: Time(base - 1), seq: uint64(n)}
		w.push(early)
		if head := w.slots[int(base/slotW)&wheelMask]; head != want[0] {
			t.Fatalf("trial %d: rewound tail is not chained in ascending order", trial)
		}
		drained := drain(&w)
		if len(drained) != n+1 || drained[0] != early {
			t.Fatalf("trial %d: drained %d events, first %v", trial, len(drained), drained[0])
		}
		for i := range want {
			if drained[i+1] != want[i] {
				t.Fatalf("trial %d: rewound drain pos %d = (t=%d,seq=%d), want (t=%d,seq=%d)",
					trial, i, drained[i+1].time, drained[i+1].seq, want[i].time, want[i].seq)
			}
		}
	}
}
