package sim

import "sort"

// This file is the kernel half of the checkpoint/restore contract (see
// internal/ckpt): the Simulator exports its mutable state — clock,
// sequence counter, processed count, and the live future-event list —
// and can be rebuilt into a state whose continuation is byte-identical
// to never having stopped. The FEL's determinism contract makes this
// possible: pop order is the (time, seq) total order, so re-inserting
// the same (time, seq, action) triples reproduces the exact trajectory
// regardless of which concrete structure (wheel slot, scratch, overflow
// heap, reference heap) each event happened to sit in at snapshot time.

// KernelState is the scalar part of the simulator's mutable state.
type KernelState struct {
	// Now is the simulated clock.
	Now Time `json:"now_ps"`
	// Seq is the next event sequence number to be issued. Restoring it
	// exactly matters: sequence numbers break timestamp ties, so a
	// continuation that re-issued earlier numbers could order new
	// events differently from the uninterrupted run.
	Seq uint64 `json:"seq"`
	// Processed is the lifetime executed-event count.
	Processed uint64 `json:"processed"`
	// ExecSeq completes the kernel's position (see Passed): keys the
	// model reserved but never materialised must read as passed or not
	// exactly as they would have without the stop.
	ExecSeq uint64 `json:"exec_seq"`
}

// ExportKernel returns the simulator's scalar state.
func (s *Simulator) ExportKernel() KernelState {
	return KernelState{Now: s.now, Seq: s.seq, Processed: s.processed, ExecSeq: s.execSeq}
}

// Action returns the event's callback. Checkpointing uses it to map
// pending events back to serializable model actions; a cancelled or
// fired event returns nil.
func (e *Event) Action() Action { return e.act }

// PendingEvents returns the live (non-cancelled) pending events in
// (time, seq) order. The returned events remain owned by the simulator;
// callers must not mutate or hold them across further simulation.
func (s *Simulator) PendingEvents() []*Event {
	if s.running {
		panic("sim: PendingEvents while running")
	}
	var out []*Event
	keep := func(e *Event) {
		if e != nil && !e.dead {
			out = append(out, e)
		}
	}
	if s.ref != nil {
		for _, e := range s.ref.items {
			keep(e)
		}
	} else {
		q := &s.queue
		for _, head := range q.slots {
			for e := head; e != nil; e = e.next {
				keep(e)
			}
		}
		if q.curLoaded {
			for _, e := range q.cur[q.curIdx:] {
				keep(e)
			}
		}
		for _, e := range q.overflow.items {
			keep(e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return eventLess(out[i], out[j]) })
	return out
}

// BeginRestore discards every pending event and resets the simulator's
// scalar state to ks, anchoring the wheel cursor at the restored clock.
// Events are then re-inserted with ScheduleReserved in ascending
// (time, seq) order, so the wheel cursor never rewinds; the first
// insertion re-anchors it via the empty-queue path. Restoring into a
// running simulator panics.
func (s *Simulator) BeginRestore(ks KernelState) {
	if s.running {
		panic("sim: BeginRestore while running")
	}
	if s.ref != nil {
		s.ref.items = nil
	} else {
		s.queue = eventQueue{}
		s.queue.init()
		s.queue.absSlot = int64(ks.Now) >> wheelGranShift
	}
	// Drop the recycle pool: discarded events may still be chained or
	// referenced by stale handles from the pre-restore build.
	s.pool = nil
	s.now = ks.Now
	s.seq = ks.Seq
	s.processed = ks.Processed
	s.execSeq = ks.ExecSeq
	s.stopped = false
}
