package sim

// Probe feeds the FEL-order probe one executed key, as a run loop does
// before the event's callback.
func (s *Simulator) Probe(t Time, seq uint64) { s.probe(t, seq) }

// SwapLoaded loads the slot holding the earliest pending event and swaps
// its i-th and j-th events: a kernel that mis-orders a slot, for the
// probe's mutant test.
func (s *Simulator) SwapLoaded(i, j int) {
	q := &s.queue
	if q.peek() == nil {
		panic("sim: SwapLoaded on an empty event list")
	}
	q.cur[i], q.cur[j] = q.cur[j], q.cur[i]
}
