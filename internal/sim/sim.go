package sim

import "fmt"

// minEventPool is the floor on the event recycle pool: small runs keep at
// least this many handles warm regardless of their measured peak.
const minEventPool = 64

// Simulator owns the simulated clock and the future-event list. It is not
// safe for concurrent use: the discrete-event model is inherently
// sequential, and determinism (identical seed → identical trajectory) is a
// design requirement for reproducing the paper's experiments.
type Simulator struct {
	now     Time
	queue   eventQueue
	seq     uint64
	running bool
	stopped bool
	pool    []*Event

	// peakPending is the high-water mark of the future-event list. It
	// bounds the recycle pool: a pool larger than the peak number of
	// simultaneously pending events can never be fully drawn down, so
	// releases beyond it return events to the garbage collector.
	peakPending int

	// poolLimit caches max(peakPending, minEventPool) so release pays a
	// single compare instead of recomputing the floor per event.
	poolLimit int

	// Processed counts events executed since construction (dead events
	// discarded from the queue are not counted).
	processed uint64

	// ref, when non-nil, replaces the timing wheel with the reference
	// binary-heap kernel (see refheap.go). The default wheel path pays
	// one nil check per queue operation for the switch.
	ref *ReferenceFEL

	// execSeq completes the kernel's position in the (time, seq) order:
	// every key strictly below (now, execSeq) has been dispatched or
	// never will be. During a callback it is the executing event's seq;
	// once a run reaches its horizon it is the next unissued seq, so
	// every key issued so far at or before the horizon reads as passed
	// (see Passed).
	execSeq uint64

	// execHook, when non-nil, observes every executed event's
	// (time, seq) just before its callback runs; the invariant checker
	// uses it to assert FIFO order out of the FEL. When unset the run
	// loops pay a single nil check per event.
	execHook func(t Time, seq uint64)
}

// New returns a Simulator with the clock at time zero.
func New() *Simulator {
	s := &Simulator{poolLimit: minEventPool}
	s.queue.init()
	return s
}

// Now returns the current simulated time.
func (s *Simulator) Now() Time { return s.now }

// Processed returns the number of events executed so far.
func (s *Simulator) Processed() uint64 { return s.processed }

// Pending returns the number of events in the future-event list,
// including cancelled events not yet discarded.
func (s *Simulator) Pending() int {
	if s.ref != nil {
		return s.ref.Len()
	}
	return s.queue.Len()
}

// SetExecHook installs fn to be called with every executed event's
// (time, seq) immediately before its callback runs; nil uninstalls it.
// The hook must not touch the simulator. It exists for the runtime
// invariant checker's FEL-order probe and costs unhooked runs one nil
// check per event.
func (s *Simulator) SetExecHook(fn func(t Time, seq uint64)) { s.execHook = fn }

// PeakPending returns the high-water mark of the future-event list over
// the simulator's lifetime; it sizes the event recycle pool.
func (s *Simulator) PeakPending() int { return s.peakPending }

// Schedule runs fn after delay d. It returns the event handle, which can
// be cancelled. A negative delay is a programming error and panics.
func (s *Simulator) Schedule(d Duration, fn func()) *Event {
	return s.ScheduleAt(s.now.Add(d), fn)
}

// ScheduleAt runs fn at absolute time t. Scheduling in the past panics:
// causality violations are bugs in the model, never legitimate.
func (s *Simulator) ScheduleAt(t Time, fn func()) *Event {
	if fn == nil {
		panic("sim: scheduling nil function")
	}
	e := s.alloc(t)
	e.act = funcAction(fn)
	s.push(e)
	return e
}

// ScheduleAction runs a pre-allocated Action after delay d without
// allocating a closure — the hot-path variant the fabric uses for its
// per-packet events.
func (s *Simulator) ScheduleAction(d Duration, a Action) *Event {
	return s.ScheduleActionAt(s.now.Add(d), a)
}

// ScheduleActionAt runs a pre-allocated Action at absolute time t; the
// allocation-free counterpart of ScheduleAt.
func (s *Simulator) ScheduleActionAt(t Time, a Action) *Event {
	if a == nil {
		panic("sim: scheduling nil action")
	}
	e := s.alloc(t)
	e.act = a
	s.push(e)
	return e
}

// Reserve issues the next sequence number without scheduling anything.
// Together with a firing time it is a key under which ScheduleReserved
// can insert an event later — at exactly the position in the
// (time, seq) order an event scheduled now would have had — or never,
// when nothing turns out to be waiting for it. Every other event keeps
// the sequence number it would have had either way.
func (s *Simulator) Reserve() uint64 {
	seq := s.seq
	s.seq++
	return seq
}

// Passed reports whether the key (t, seq) lies behind the kernel's
// position: an event under that key would already have been dispatched.
// The answer is exact on timestamp ties — inside a callback the
// position is the executing event's own key — and between runs: a run
// that reached its horizon has passed every key issued so far with
// t ≤ the horizon, while one ended by Stop or by exhausting the event
// list stays at its last executed event.
func (s *Simulator) Passed(t Time, seq uint64) bool {
	return t < s.now || (t == s.now && seq < s.execSeq)
}

// ScheduleReserved inserts a under the explicit key (t, seq): seq came
// from Reserve (or, restoring a checkpoint, from the snapshot) and the
// key must not have passed — inserting behind the kernel's position is
// the same causality violation as scheduling in the past, and panics.
// It is the kernel's one explicit-key insertion path; the event list
// orders by (time, seq) whatever the insertion order, so the event
// fires exactly where an event scheduled at Reserve time would have.
func (s *Simulator) ScheduleReserved(t Time, seq uint64, a Action) *Event {
	if a == nil {
		panic("sim: scheduling nil action")
	}
	if seq >= s.seq {
		panic(fmt.Sprintf("sim: scheduling under unissued seq %d (next %d)", seq, s.seq))
	}
	if s.Passed(t, seq) {
		panic(fmt.Sprintf("sim: scheduling key (%v, %d) behind the kernel position (%v, %d)", t, seq, s.now, s.execSeq))
	}
	e := s.take(t, seq)
	e.act = a
	s.push(e)
	return e
}

// push inserts the event into the active kernel and tracks the pending
// high-water mark.
func (s *Simulator) push(e *Event) {
	if s.ref != nil {
		s.ref.push(e)
		if n := len(s.ref.items); n > s.peakPending {
			s.peakPending = n
			if n > s.poolLimit {
				s.poolLimit = n
			}
		}
		return
	}
	s.queue.push(e)
	if n := s.queue.wcount + len(s.queue.overflow.items); n > s.peakPending {
		s.peakPending = n
		if n > s.poolLimit {
			s.poolLimit = n
		}
	}
}

// panicPast reports a causality violation; split out of alloc so the
// format call does not weigh down alloc's inlining budget.
func panicPast(t, now Time) {
	panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, now))
}

// alloc takes an event from the recycle pool or makes a new one. Pooled
// events were part-normalized by release (act and next already nil);
// dead is cleared here, not there, so a cancelled handle keeps
// reporting Cancelled() until the event is actually reused.
func (s *Simulator) alloc(t Time) *Event {
	if t < s.now {
		panicPast(t, s.now)
	}
	e := s.take(t, s.seq)
	s.seq++
	return e
}

// take returns a pooled (or new) event keyed (t, seq).
func (s *Simulator) take(t Time, seq uint64) *Event {
	var e *Event
	if n := len(s.pool); n > 0 {
		e = s.pool[n-1]
		s.pool[n-1] = nil
		s.pool = s.pool[:n-1]
	} else {
		e = &Event{}
	}
	e.time = t
	e.seq = seq
	e.dead = false
	return e
}

// release recycles a fired or discarded event, dropping its callback
// reference (the caller guarantees e is unlinked, so next is already
// nil; dead is left for alloc so stale handles still read Cancelled).
// The pool is capped at the measured pending high-water mark (with a
// small floor): the number of live handles is pending + pooled, so a
// pool of peakPending events is exactly enough to make every future
// alloc a recycle — a larger one is garbage that can never drain.
func (s *Simulator) release(e *Event) {
	e.act = nil
	if len(s.pool) < s.poolLimit {
		s.pool = append(s.pool, e)
	}
}

// Cancel marks e dead so it will not fire. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (s *Simulator) Cancel(e *Event) {
	if e != nil {
		e.dead = true
		e.act = nil
	}
}

// Stop makes the current Run return after the executing event completes.
func (s *Simulator) Stop() { s.stopped = true }

// Run executes events until the queue is empty or Stop is called. It
// returns the number of events executed by this call.
func (s *Simulator) Run() uint64 {
	return s.RunUntil(MaxTime)
}

// RunUntil executes events with time ≤ end, in (time, insertion) order,
// until the queue is exhausted, Stop is called, or the next event is
// beyond end. The clock is left at the later of its current value and
// end if the horizon was reached, so subsequent scheduling is relative to
// the horizon. It returns the number of events executed by this call.
//
// The kernel is selected once per call: the default wheel runs the
// batched slot-drain loop (runWheel), hooked or not — a hook installed
// by a callback mid-run sees the very next event — and the reference
// heap takes the peek/pop loop (runRef). UseReferenceFEL cannot occur
// mid-run: it panics while running.
func (s *Simulator) RunUntil(end Time) uint64 {
	if s.running {
		panic("sim: Run called reentrantly")
	}
	s.running = true
	s.stopped = false
	defer func() { s.running = false }()

	if s.ref == nil {
		return s.runWheel(end)
	}
	return s.runRef(end)
}

// reachHorizon commits a run that has executed every event at or before
// end (end != MaxTime): the clock moves up to end, and every key issued
// so far with time ≤ end reads as passed — an event that was never
// materialised under such a key counts as having had its turn.
func (s *Simulator) reachHorizon(end Time) {
	if end < s.now {
		return // a horizon behind the clock: nothing ran, nothing moves
	}
	s.now = end
	s.execSeq = s.seq
}

// runWheel is the hot loop: one peek per timing-wheel slot, then a
// batched drain of the loaded slot's scratch buffer. Events of a slot
// strictly below the horizon's slot skip the per-event end comparison
// entirely — every event the slot holds (including ones a callback
// inserts mid-drain, which by construction land in this same slot or
// later) is known to be within the horizon.
func (s *Simulator) runWheel(end Time) uint64 {
	q := &s.queue
	endSlot := int64(end) >> wheelGranShift
	var n uint64
	for !s.stopped {
		e := q.peek()
		if e == nil {
			break
		}
		if e.time > end {
			s.reachHorizon(end)
			return n
		}
		// peek's postcondition: the cursor slot is loaded and e is
		// cur[curIdx], so the drains index the scratch directly.
		if q.absSlot < endSlot {
			n = s.drainSlot(q, n)
		} else {
			var hitEnd bool
			n, hitEnd = s.drainSlotTo(q, end, n)
			if hitEnd {
				s.reachHorizon(end)
				return n
			}
		}
	}
	if end != MaxTime && !s.stopped {
		s.reachHorizon(end)
	}
	return n
}

// drainSlot executes the loaded slot to exhaustion (no per-event end
// checks — the caller proved the whole slot lies within the horizon),
// returning the updated executed-event count. It returns early when a
// callback stops the run; callbacks that push into this same slot grow
// the scratch mid-drain and are executed in order.
func (s *Simulator) drainSlot(q *eventQueue, n uint64) uint64 {
	for {
		e := q.cur[q.curIdx]
		q.cur[q.curIdx] = nil
		q.curIdx++
		q.wcount--
		if q.curIdx == len(q.cur) {
			// Eagerly release the drained scratch before dispatch: a
			// re-anchoring push from the callback may target this slot
			// again before peek advances the cursor.
			q.resetCur()
		}
		if e.dead {
			s.release(e)
		} else {
			s.now, s.execSeq = e.time, e.seq
			if s.execHook != nil {
				s.execHook(e.time, e.seq)
			}
			act := e.act
			s.release(e)
			act.Act()
			n++
			s.processed++
			if s.stopped {
				return n
			}
		}
		if !q.curLoaded {
			return n
		}
	}
}

// drainSlotTo is drainSlot for the slot containing the horizon: each
// event is checked against end, and hitting the horizon leaves the
// event in place (mirroring the peek-only path) and reports hitEnd.
func (s *Simulator) drainSlotTo(q *eventQueue, end Time, n uint64) (_ uint64, hitEnd bool) {
	for {
		e := q.cur[q.curIdx]
		if e.time > end {
			return n, true
		}
		q.cur[q.curIdx] = nil
		q.curIdx++
		q.wcount--
		if q.curIdx == len(q.cur) {
			q.resetCur()
		}
		if e.dead {
			s.release(e)
		} else {
			s.now, s.execSeq = e.time, e.seq
			if s.execHook != nil {
				s.execHook(e.time, e.seq)
			}
			act := e.act
			s.release(e)
			act.Act()
			n++
			s.processed++
			if s.stopped {
				return n, false
			}
		}
		if !q.curLoaded {
			return n, false
		}
	}
}

// runRef is the reference heap kernel's per-event peek/pop loop.
func (s *Simulator) runRef(end Time) uint64 {
	var n uint64
	for !s.stopped {
		e := s.ref.peek()
		if e == nil {
			break
		}
		if e.time > end {
			s.reachHorizon(end)
			return n
		}
		s.ref.pop()
		if e.dead {
			s.release(e)
			continue
		}
		s.now, s.execSeq = e.time, e.seq
		if s.execHook != nil {
			s.execHook(e.time, e.seq)
		}
		act := e.act
		s.release(e)
		act.Act()
		n++
		s.processed++
	}
	if end != MaxTime && !s.stopped {
		s.reachHorizon(end)
	}
	return n
}
