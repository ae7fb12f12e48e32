package sim

import (
	"cmp"
	"slices"
)

// Event is a scheduled callback. Events are created through the
// Simulator's Schedule methods; cancelling marks the event dead and it
// is discarded when it reaches the head of the queue. Fired and dead
// events are recycled: a held *Event is only valid until its event
// fires, so holders that may outlive it must remember Seq() and compare
// before acting on the handle.
//
// The field order is the access order of the hot paths: push touches
// (time, next), slot load/sort touches (time, seq, next), dispatch
// touches (time, dead, act). Keeping the sort key and the chain link in
// the first 24 bytes means loading a slot walks one cache line per
// event, and collapsing the old separate `fn func()` field into the act
// interface (func values are pointer-shaped, so the conversion does not
// allocate) shrinks the struct from 56 to 48 bytes — 4096 pooled events
// fit ~33 KB less cache.
type Event struct {
	time Time
	seq  uint64 // insertion order; breaks ties deterministically (FIFO)
	next *Event // intrusive wheel-slot chain; nil outside a chain
	act  Action
	dead bool
}

// Action is an allocation-free alternative to a closure callback:
// model components pre-allocate an Action and re-schedule it instead of
// capturing state in a new func value per event.
type Action interface {
	// Act runs the callback.
	Act()
}

// funcAction adapts a plain closure to the Action interface. A func
// value is a single pointer, so the interface conversion is direct —
// no boxing allocation — and every event dispatches through one code
// path (act.Act()) instead of a per-event fn-vs-act branch.
type funcAction func()

// Act runs the wrapped closure.
func (f funcAction) Act() { f() }

// Time returns the instant the event fires (or was scheduled to fire).
func (e *Event) Time() Time { return e.time }

// Seq returns the event's unique schedule sequence number; holders that
// keep an *Event across its firing use it to detect recycled handles.
func (e *Event) Seq() uint64 { return e.seq }

// Cancelled reports whether the event was cancelled before firing.
func (e *Event) Cancelled() bool { return e.dead }

// eventLess is the future-event-list order: time, then insertion
// sequence (FIFO among equal times). It is a total order because
// sequence numbers are unique, so every correct FEL implementation
// yields the same trajectory.
func eventLess(a, b *Event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// The future-event list is a hierarchical timing wheel: near-future
// events hash into fixed-width time slots (O(1) insert, amortized O(1)
// extract with a lazy per-slot sort), far-future events wait in an
// overflow min-heap and migrate into the wheel as the cursor advances.
// The model's event horizon is overwhelmingly near-future — credit
// returns after a 10 ns propagation, serializations of 44 ns to 840 ns,
// 100 ns hop latencies — so the common case never touches the heap,
// replacing the old binary heap's O(log n) sift (and its pointer-chasing
// cache misses at tens-of-thousands pending) with chain pushes.
//
// Slots are intrusive singly-linked chains through Event.next, so a
// push is two pointer writes and never allocates; the steady-state
// zero-allocation budget depends on this (per-slot slices would keep
// growing whenever a slot sets an occupancy record). The chain entered
// by the cursor is unlinked into one shared scratch buffer and sorted
// there, so extraction cost is one pass plus a small sort amortized
// over the slot's events.
//
// Slot width is 2^wheelGranShift ps and the wheel spans wheelSlots of
// them (8.192 ns * 8192 ≈ 67 us). Only CC recovery-timer ticks
// (≈153.6 us) and idle-source wakeups reach the overflow heap.
//
// The width is sized for the traffic the fabric model actually
// schedules, not for the synthetic kernel benchmark: in real runs a
// slot's events carry distinct picosecond timestamps, so every loaded
// slot is comparison-sorted and the cost grows with its occupancy. At
// the previous 2^14 ps a loaded slot held 11–24 events on the
// radix-18/36 benchmark workloads and 92–100 % of loads needed the
// sort; at 2^13 ps it holds 6–14. Narrower still (2^12, 2^11) measured
// no further end-to-end gain while sparse queues — a radix-12 sweep, the
// shallow kernel benchmark — paid for walking the emptier wheel
// (DESIGN.md §9 has the table). The slot count keeps the horizon fixed.
const (
	wheelGranShift = 13             // log2 slot width in picoseconds
	wheelSlots     = 1 << 13        // slots in the wheel (power of two)
	wheelMask      = wheelSlots - 1 // index mask
	sortThreshold  = 32             // insertion sort below, pdqsort above

	// initialScratch is the pre-sized capacity of the shared slot
	// scratch buffer. Slot occupancy is bounded by how many model
	// entities can schedule within one slot's window, far below this;
	// the headroom keeps steady state allocation-free while append
	// doubling still guarantees correctness beyond it.
	initialScratch = 1024
)

// eventQueue is the timing-wheel future-event list. Determinism
// contract: pop yields events in exact eventLess order — byte-identical
// trajectories to the binary-heap implementation it replaced
// (TestHeapMatchesSortReference and the cross-package golden test pin
// this).
type eventQueue struct {
	// slots[s & wheelMask] chains (unordered, via Event.next) the
	// events of absolute slot s. Wheel slots cover absolute slots
	// [absSlot, absSlot+wheelSlots).
	slots []*Event
	// absSlot is the cursor: the absolute slot number (time >>
	// wheelGranShift) the queue head currently lies in.
	absSlot int64
	// cur is the sorted scratch view of the current slot once loaded;
	// curIdx is the pop position within it.
	cur       []*Event
	curIdx    int
	curLoaded bool
	// wcount is the number of events resident in the wheel (chains
	// plus the loaded scratch).
	wcount int
	// spare is sortSlot's partition buffer; retained across loads so the
	// two-timestamp fast path stays allocation-free.
	spare []*Event
	// overflow holds events at or beyond the wheel horizon.
	overflow overflowHeap
}

func (q *eventQueue) init() {
	q.slots = make([]*Event, wheelSlots)
	q.cur = make([]*Event, 0, initialScratch)
}

func (q *eventQueue) Len() int { return q.wcount + len(q.overflow.items) }

// push inserts e, keeping the horizon invariant: wheel chains hold only
// absolute slots within [absSlot, absSlot+wheelSlots). The body is the
// hot straight-line case — an in-horizon chain prepend, two pointer
// writes — sized to inline at ScheduleAction call sites; everything
// rare (cursor rewind, overflow, the mid-drain slot, empty-queue
// re-anchor) lives in pushSlow.
//
// One deliberate divergence from the original single-path push: an
// empty queue whose stale cursor is already at or behind the new
// event's in-horizon slot is NOT re-anchored — the event chains into
// its slot and peek walks the cursor forward (bounded by wheelSlots).
// Pop order is unaffected; only the walk length differs, and only on
// the empty→non-empty transition.
func (q *eventQueue) push(e *Event) {
	s := int64(e.time) >> wheelGranShift
	d := s - q.absSlot
	// One unsigned compare rejects both the behind-cursor (d < 0) and
	// beyond-horizon (d >= wheelSlots) cases.
	if uint64(d) >= wheelSlots || (d == 0 && q.curLoaded) {
		q.pushSlow(e, s, d)
		return
	}
	idx := int(s) & wheelMask
	e.next = q.slots[idx]
	q.slots[idx] = e
	q.wcount++
}

// pushSlow handles the rare push cases split out of the hot path.
func (q *eventQueue) pushSlow(e *Event, s, d int64) {
	if d == 0 && q.curLoaded {
		// The current slot is mid-drain; keep its sorted tail sorted.
		q.cur = sortedInsert(q.cur, q.curIdx, e)
		q.wcount++
		return
	}
	if q.wcount == 0 && len(q.overflow.items) == 0 {
		// Empty queue with the cursor ahead of (or far behind) the new
		// event: re-anchor the cursor at it.
		q.absSlot = s
		d = 0
	} else if d < 0 {
		// The cursor overshot: it parked on the next pending event's
		// slot when a run returned at its horizon, and a later
		// schedule landed between the clock and that event. Rewind.
		q.rewind(s)
		d = 0
	}
	if d >= wheelSlots {
		q.overflow.push(e)
		return
	}
	idx := int(s) & wheelMask
	e.next = q.slots[idx]
	q.slots[idx] = e
	q.wcount++
}

// rewind moves the cursor back to absolute slot s (s < absSlot). Any
// chain whose absolute slot would fall outside the shrunk horizon
// [s, s+wheelSlots) is evicted to the overflow heap so slot indices
// cannot alias two absolute slots.
func (q *eventQueue) rewind(s int64) {
	old := q.absSlot
	if q.curLoaded {
		// Return the undrained tail of the current slot to its chain;
		// it re-sorts when the cursor comes back.
		idx := int(old) & wheelMask
		for i := len(q.cur) - 1; i >= q.curIdx; i-- {
			ev := q.cur[i]
			ev.next = q.slots[idx]
			q.slots[idx] = ev
			q.cur[i] = nil
		}
		q.resetCur()
	}
	q.absSlot = s
	if q.wcount == 0 {
		return
	}
	span := old - s
	if span > wheelSlots {
		span = wheelSlots
	}
	for k := int64(0); k < span; k++ {
		idx := int(s+wheelSlots+k) & wheelMask
		head := q.slots[idx]
		if head == nil {
			continue
		}
		// Only evict chains actually beyond the new horizon: the index
		// may instead hold events of an in-horizon absolute slot.
		if int64(head.time)>>wheelGranShift < s+wheelSlots {
			continue
		}
		q.slots[idx] = nil
		for head != nil {
			n := head.next
			head.next = nil
			q.overflow.push(head)
			q.wcount--
			head = n
		}
	}
}

// migrate pulls overflow events that now fit the wheel horizon into
// their chains.
func (q *eventQueue) migrate() {
	horizon := q.absSlot + wheelSlots
	for len(q.overflow.items) > 0 {
		e := q.overflow.items[0]
		s := int64(e.time) >> wheelGranShift
		if s >= horizon {
			break
		}
		q.overflow.pop()
		if s == q.absSlot && q.curLoaded {
			q.cur = sortedInsert(q.cur, q.curIdx, e)
		} else {
			idx := int(s) & wheelMask
			e.next = q.slots[idx]
			q.slots[idx] = e
		}
		q.wcount++
	}
}

// load unlinks the chain at idx into the scratch buffer and sorts it;
// the slot's events are then popped by index.
//
// The chain is a LIFO prepend list, so reversing the unlinked buffer
// recovers push order — ascending seq for plain pushes. A slot whose
// events share one timestamp, or were pushed in time order, is
// therefore already in (time, seq) order after the reversal, and the
// comparison sort collapses to an O(k) sortedness check. Only slots
// whose timestamps interleave out of push order (or that migrate()
// prepended overflow events into) pay for a real sort — in fabric runs
// that is most of them, which is why the slot width is sized to keep k
// small.
func (q *eventQueue) load(idx int) {
	// Callers guarantee a non-empty chain. Sortedness is checked during
	// the walk itself — strictly descending chain order is exactly
	// ascending (time, seq) order after the reversal — so the common
	// case costs one pass plus the reversal, with no separate scan.
	e := q.slots[idx]
	q.slots[idx] = nil
	cur := append(q.cur[:0], e)
	prev := e
	e = e.next
	prev.next = nil
	sorted := true
	for e != nil {
		n := e.next
		e.next = nil
		cur = append(cur, e)
		if !eventLess(e, prev) {
			sorted = false
		}
		prev = e
		e = n
	}
	for i, j := 0, len(cur)-1; i < j; i, j = i+1, j-1 {
		cur[i], cur[j] = cur[j], cur[i]
	}
	if !sorted {
		q.sortSlot(cur)
	}
	q.cur = cur
	q.curIdx = 0
	q.curLoaded = true
}

// sortSlot restores (time, seq) order in a slot buffer that failed
// load's sortedness check. The cheapest failure is a slot straddling
// exactly two distinct instants whose pushes interleaved: the buffer is
// then two seq-ascending runs shuffled together, and a stable two-way
// partition by timestamp re-sorts it in O(k) pointer moves with
// no comparator calls. Anything else — three or more distinct times, or
// a within-time seq inversion (rewind re-pushes reverse the chain) —
// falls back to the comparison sort.
func (q *eventQueue) sortSlot(s []*Event) {
	a := s[0].time
	b := a
	lastA, lastB := s[0].seq, uint64(0)
	ok := true
	for _, e := range s[1:] {
		switch e.time {
		case a:
			ok = ok && e.seq > lastA
			lastA = e.seq
		case b:
			ok = ok && e.seq > lastB
			lastB = e.seq
		default:
			if a != b {
				ok = false
			} else {
				b = e.time
				lastB = e.seq
			}
		}
		if !ok {
			sortEvents(s)
			return
		}
	}
	if a == b {
		// Single timestamp yet unsorted: within-time inversion.
		sortEvents(s)
		return
	}
	lo := a
	if b < a {
		lo = b
	}
	spare := q.spare[:0]
	w := 0
	for _, e := range s {
		if e.time == lo {
			s[w] = e
			w++
		} else {
			spare = append(spare, e)
		}
	}
	copy(s[w:], spare)
	for i := range spare {
		spare[i] = nil
	}
	q.spare = spare[:0]
}

// resetCur clears the scratch view of the current slot.
func (q *eventQueue) resetCur() {
	q.cur = q.cur[:0]
	q.curIdx = 0
	q.curLoaded = false
}

// peek returns the earliest event without removing it, or nil if empty.
// It advances the cursor over drained slots and loads the slot it lands
// on, so a following pop is O(1).
func (q *eventQueue) peek() *Event {
	for q.wcount > 0 || len(q.overflow.items) > 0 {
		if q.curLoaded {
			if q.curIdx < len(q.cur) {
				return q.cur[q.curIdx]
			}
			q.resetCur()
		}
		idx := int(q.absSlot) & wheelMask
		if q.slots[idx] != nil {
			q.load(idx)
			return q.cur[0]
		}
		if q.wcount == 0 {
			// Everything pending is far-future: jump the cursor to
			// the overflow minimum and pull its era in.
			q.absSlot = int64(q.overflow.items[0].time) >> wheelGranShift
			q.migrate()
			continue
		}
		q.absSlot++
		// Absolute slot absSlot+wheelSlots-1 became representable;
		// migrate any overflow events that belong in it.
		if len(q.overflow.items) > 0 {
			q.migrate()
		}
	}
	return nil
}

// pop removes and returns the earliest event, or nil if empty.
func (q *eventQueue) pop() *Event {
	e := q.peek()
	if e == nil {
		return nil
	}
	q.cur[q.curIdx] = nil
	q.curIdx++
	q.wcount--
	if q.curIdx == len(q.cur) {
		// Eagerly release the drained scratch: a re-anchoring push may
		// target this slot again before peek advances the cursor.
		q.resetCur()
	}
	return e
}

// sortedInsert places e into the sorted slice s, keeping positions
// before lo (already popped) untouched.
func sortedInsert(s []*Event, lo int, e *Event) []*Event {
	i, j := lo, len(s)
	for i < j {
		h := int(uint(i+j) >> 1)
		if eventLess(s[h], e) {
			i = h + 1
		} else {
			j = h
		}
	}
	s = append(s, nil)
	copy(s[i+1:], s[i:])
	s[i] = e
	return s
}

// sortEvents orders a slot by (time, seq): insertion sort while small
// (slots typically hold a few tens of events), pdqsort beyond.
func sortEvents(s []*Event) {
	if len(s) <= sortThreshold {
		for i := 1; i < len(s); i++ {
			e := s[i]
			j := i - 1
			for j >= 0 && eventLess(e, s[j]) {
				s[j+1] = s[j]
				j--
			}
			s[j+1] = e
		}
		return
	}
	slices.SortFunc(s, func(a, b *Event) int {
		if c := cmp.Compare(a.time, b.time); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
}

// overflowHeap is a binary min-heap ordered by eventLess, holding the
// far-future tail of the event population. A hand-rolled heap (rather
// than container/heap) avoids interface boxing.
type overflowHeap struct {
	items []*Event
}

// push inserts e into the heap.
func (h *overflowHeap) push(e *Event) {
	h.items = append(h.items, e)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(e, h.items[parent]) {
			break
		}
		h.items[i] = h.items[parent]
		i = parent
	}
	h.items[i] = e
}

// pop removes and returns the earliest event, or nil if empty.
func (h *overflowHeap) pop() *Event {
	n := len(h.items)
	if n == 0 {
		return nil
	}
	top := h.items[0]
	last := h.items[n-1]
	h.items[n-1] = nil
	h.items = h.items[:n-1]
	if n > 1 {
		i := 0
		n--
		for {
			l := 2*i + 1
			if l >= n {
				break
			}
			child := l
			if r := l + 1; r < n && eventLess(h.items[r], h.items[l]) {
				child = r
			}
			if !eventLess(h.items[child], last) {
				break
			}
			h.items[i] = h.items[child]
			i = child
		}
		h.items[i] = last
	}
	return top
}
