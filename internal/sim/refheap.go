package sim

// ReferenceFEL is the binary min-heap future-event list the simulator
// used before the timing-wheel kernel. It is kept as a live, runtime-
// selectable kernel rather than dead history: because it implements the
// same (time, seq) total order with a completely different data
// structure, running a scenario on both kernels and comparing the full
// trajectories (core.RunDifferential, `paperbench diff-kernel`) turns
// the golden-snapshot test into a continuous cross-implementation
// check — an ordering bug in either kernel shows up as a divergence.
//
// The implementation is deliberately the textbook array heap with
// swap-based sifts: simple enough to audit by eye, and sharing no code
// with the wheel (not even the wheel's overflow heap, which uses
// hole-based sifts).
type ReferenceFEL struct {
	items []*Event
}

// Len returns the number of pending events.
func (h *ReferenceFEL) Len() int { return len(h.items) }

// push inserts e, restoring the heap order by sifting it up.
func (h *ReferenceFEL) push(e *Event) {
	h.items = append(h.items, e)
	i := len(h.items) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !eventLess(h.items[i], h.items[p]) {
			break
		}
		h.items[i], h.items[p] = h.items[p], h.items[i]
		i = p
	}
}

// peek returns the earliest event without removing it, or nil if empty.
func (h *ReferenceFEL) peek() *Event {
	if len(h.items) == 0 {
		return nil
	}
	return h.items[0]
}

// pop removes and returns the earliest event, or nil if empty.
func (h *ReferenceFEL) pop() *Event {
	n := len(h.items)
	if n == 0 {
		return nil
	}
	top := h.items[0]
	h.items[0] = h.items[n-1]
	h.items[n-1] = nil
	h.items = h.items[:n-1]
	n--
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && eventLess(h.items[l], h.items[least]) {
			least = l
		}
		if r < n && eventLess(h.items[r], h.items[least]) {
			least = r
		}
		if least == i {
			break
		}
		h.items[i], h.items[least] = h.items[least], h.items[i]
		i = least
	}
	return top
}

// UseReferenceFEL switches the simulator from the timing wheel onto the
// reference binary-heap kernel. Events already pending (for example a
// metrics collector's warmup snapshot scheduled at build time) migrate
// across in (time, seq) order, so the switch is trajectory-neutral at
// any point outside Run. Switching is one-way and idempotent.
func (s *Simulator) UseReferenceFEL() {
	if s.running {
		panic("sim: UseReferenceFEL while running")
	}
	if s.ref != nil {
		return
	}
	ref := &ReferenceFEL{}
	for {
		e := s.queue.pop()
		if e == nil {
			break
		}
		ref.push(e)
	}
	s.ref = ref
}

// UsingReferenceFEL reports whether the reference kernel is active.
func (s *Simulator) UsingReferenceFEL() bool { return s.ref != nil }
