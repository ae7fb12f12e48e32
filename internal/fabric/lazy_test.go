package fabric

import (
	"strings"
	"testing"

	"repro/internal/ib"
	"repro/internal/sim"
	"repro/internal/topo"
)

// These tests re-run the tie-break scenarios (tiecorrupttest.go, whose
// observable outcome is pinned by a golden recorded before any event
// was elided) with a probe on the bookkeeping that replaced the events:
// each asserts that the tie it is named after really occurred and was
// resolved through the on-demand path, so the golden comparison cannot
// pass because a scenario quietly stopped exercising it.

// probeRun runs a scenario with probe attached and returns the rig.
func probeRun(t *testing.T, name string, probe func(r *tieRig, tag string, done bool)) *tieRig {
	t.Helper()
	r := tieScenarios[name](t)
	r.probe = func(tag string, done bool) { probe(r, tag, done) }
	r.finish()
	return r
}

func TestEnqueueAtBusyUntilBelowReservedSeq(t *testing.T) {
	seen := 0
	probeRun(t, "enqueue_at_busy_until_seq_below", func(r *tieRig, tag string, done bool) {
		op, s := r.op, r.n.simr
		switch {
		case tag == "B" && !done:
			seen++
			if !op.busy || op.armed || s.Now() != op.busyUntil || s.Passed(op.busyUntil, op.txSeq) {
				t.Fatalf("before B: busy=%v armed=%v now=%v busyUntil=%v passed=%v; want an unarmed busy link exactly at its key's instant, key still ahead",
					op.busy, op.armed, s.Now(), op.busyUntil, s.Passed(op.busyUntil, op.txSeq))
			}
		case tag == "B" && done:
			seen++
			if !op.armed || op.pending != 1 {
				t.Fatalf("after B: armed=%v pending=%d; the arrival must arm the serializer-done event and wait", op.armed, op.pending)
			}
		case tag == "C" && done:
			seen++
			if !op.armed || op.pending != 2 || s.Pending() == 0 {
				t.Fatalf("after C: armed=%v pending=%d", op.armed, op.pending)
			}
		}
	})
	if seen != 3 {
		t.Fatalf("probe saw %d of 3 steps", seen)
	}
}

func TestEnqueueAtBusyUntilAboveReservedSeq(t *testing.T) {
	seen := 0
	probeRun(t, "enqueue_at_busy_until_seq_above", func(r *tieRig, tag string, done bool) {
		op, s := r.op, r.n.simr
		switch {
		case tag == "B" && !done:
			seen++
			// The flag is stale — no event cleared it — but the key has
			// passed on the sequence-number tie alone.
			if !op.busy || op.armed || s.Now() != op.busyUntil || !s.Passed(op.busyUntil, op.txSeq) {
				t.Fatalf("before B: busy=%v armed=%v now=%v busyUntil=%v passed=%v; want a never-armed link whose key passed at this very instant",
					op.busy, op.armed, s.Now(), op.busyUntil, s.Passed(op.busyUntil, op.txSeq))
			}
		case tag == "B" && done:
			seen++
			if op.pending != 0 || !op.busy || op.armed || op.busyUntil <= s.Now() {
				t.Fatalf("after B: pending=%d busy=%v armed=%v; B must have been granted on arrival", op.pending, op.busy, op.armed)
			}
		case tag == "C" && done:
			seen++
			if op.pending != 1 || !op.armed {
				t.Fatalf("after C: pending=%d armed=%v; C waits behind B with the done event armed", op.pending, op.armed)
			}
		}
	})
	if seen != 3 {
		t.Fatalf("probe saw %d of 3 steps", seen)
	}
}

// parkedFor returns the live ring entries parked for l.
func parkedFor(n *Network, l *linkOut) []parkedCredit {
	var out []parkedCredit
	for i := 0; i < n.parked.len; i++ {
		if c := n.parked.at(i); c.taker != nil && c.link == l.index {
			out = append(out, *c)
		}
	}
	return out
}

// TestCreditAtBusyUntil: the update landing on the serializer-done
// instant, behind it in sequence, is parked, still unlanded when the
// done callback stalls, and therefore turned into a real event — one
// more executed event than when it lands a picosecond earlier and is
// simply folded.
func TestCreditAtBusyUntil(t *testing.T) {
	var stalledAt sim.Time
	exact := probeRun(t, "credit_at_busy_until", func(r *tieRig, tag string, done bool) {
		if tag != "credit" || !done {
			return
		}
		op := r.op
		r.n.fold() // A's own credit landed long ago; nothing has read the counter since
		p := parkedFor(r.n, &op.linkOut)
		if len(p) != 1 || op.state().nParked != 1 || !op.armed {
			t.Fatalf("after the update left: %d parked (count %d), armed=%v", len(p), op.state().nParked, op.armed)
		}
		if p[0].at != op.busyUntil || p[0].seq <= op.txSeq {
			t.Fatalf("update keyed (%v, %d), serializer-done (%v, %d): want the same instant, later seq", p[0].at, p[0].seq, op.busyUntil, op.txSeq)
		}
		stalledAt = op.busyUntil
	})
	early := probeRun(t, "credit_1ps_before_busy_until", func(r *tieRig, tag string, done bool) {
		if tag != "credit" || !done {
			return
		}
		r.n.fold()
		p := parkedFor(r.n, &r.op.linkOut)
		if len(p) != 1 || p[0].at != r.op.busyUntil-1 {
			t.Fatalf("update parked %v, want one landing 1 ps before %v", p, r.op.busyUntil)
		}
	})
	if stalledAt == 0 {
		t.Fatal("probe never ran")
	}
	if got, want := exact.n.simr.Processed(), early.n.simr.Processed()+1; got != want {
		t.Fatalf("exact tie executed %d events, 1 ps earlier %d: want exactly the materialised update more", got, want-1)
	}
}

func TestTwoCreditsInOnePropDelay(t *testing.T) {
	seen := false
	r := probeRun(t, "two_credits_in_one_propdelay", func(r *tieRig, tag string, done bool) {
		if tag != "c2" || !done {
			return
		}
		seen = true
		p := parkedFor(r.n, &r.op.linkOut)
		if len(p) != 2 || p[0].bytes != 100 || p[1].bytes != 200 || p[0].at >= p[1].at || p[0].seq >= p[1].seq {
			t.Fatalf("parked for the port: %+v; want the 100- and 200-byte updates in key order", p)
		}
		if err := r.n.CheckLinkArmed(); err != nil {
			t.Fatal(err)
		}
	})
	if !seen {
		t.Fatal("probe never ran")
	}
	if r.n.parked.len != 0 && parkedFor(r.n, &r.op.linkOut) != nil {
		t.Fatal("updates still parked for the port after the run")
	}
}

func TestParkedRingOverflowFallsBackToEvents(t *testing.T) {
	var before int
	seen := false
	probeRun(t, "more_credits_than_the_ring_holds", func(r *tieRig, tag string, done bool) {
		if tag != "burst" {
			return
		}
		if !done {
			before = r.n.simr.Pending()
			return
		}
		seen = true
		if r.n.parked.len != parkedCap || int(r.op.state().nParked) != parkedCap {
			t.Fatalf("ring holds %d (%d for the port), want it full at %d", r.n.parked.len, r.op.state().nParked, parkedCap)
		}
		if got := r.n.simr.Pending() - before; got != 80-parkedCap {
			t.Fatalf("%d updates became events, want the %d the ring had no room for", got, 80-parkedCap)
		}
		if err := r.n.CheckLinkArmed(); err != nil {
			t.Fatal(err)
		}
	})
	if !seen {
		t.Fatal("probe never ran")
	}
}

func TestLinkUpWithCreditParked(t *testing.T) {
	for name, wantStall := range map[string]bool{
		"link_up_before_credit_lands": true,
		"link_up_at_credit_landing":   true,
		"link_up_after_credit_landed": false,
	} {
		seen := 0
		var pendingBefore int
		probeRun(t, name, func(r *tieRig, tag string, done bool) {
			op, st := r.op, r.op.state()
			switch {
			case tag == "credit" && done:
				seen++
				// Down with a packet waiting: not stalled (no arbitration
				// pass ran), so the update is parked like any other.
				if st.stalled || st.nParked != 1 || !op.down || op.pending != 1 {
					t.Fatalf("%s: after the update left: stalled=%v parked=%d down=%v pending=%d", name, st.stalled, st.nParked, op.down, op.pending)
				}
			case tag == "up" && !done:
				pendingBefore = r.n.simr.Pending()
			case tag == "up" && done:
				seen++
				if wantStall {
					if !st.stalled || st.nParked != 0 || op.pending != 1 || r.n.simr.Pending() != pendingBefore+1 {
						t.Fatalf("%s: after coming up: stalled=%v parked=%d pending=%d events %+d; want the stall to have turned the update into an event",
							name, st.stalled, st.nParked, op.pending, r.n.simr.Pending()-pendingBefore)
					}
				} else if st.stalled || op.pending != 0 || !op.busy {
					t.Fatalf("%s: after coming up: stalled=%v pending=%d busy=%v; want the landed update folded and A granted", name, st.stalled, op.pending, op.busy)
				}
				if err := r.n.CheckLinkArmed(); err != nil {
					t.Fatal(err)
				}
			}
		})
		if seen != 2 {
			t.Fatalf("%s: probe saw %d of 2 steps", name, seen)
		}
	}
}

// TestRunToExhaustionLeavesLazyLinks: Run() stops at the last event
// that was actually scheduled. With a sink faster than the link, the
// pre-elision fabric drained this flood at 14 024 889 ps, its last
// events the leaf's serializer-done callback (nothing to send) and the
// final credit update (nobody waiting); now the clock stops at the last
// delivery, with that serializer still busy behind an unarmed key and
// that update parked ahead of the clock — and CheckQuiescent settles
// both.
func TestRunToExhaustionLeavesLazyLinks(t *testing.T) {
	const eagerDrainClock = sim.Time(14_024_889)
	tp, err := topo.LinearChain(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testCfg()
	cfg.SinkRate = sim.Gbps(40)
	n := buildNet(t, tp, cfg, Hooks{})
	for src := 0; src < 3; src++ {
		n.HCA(ib.LID(src)).SetSource(&floodSource{src: ib.LID(src), dst: 3, remaining: 5})
	}
	n.Start()
	n.Sim().Run()
	now := n.Sim().Now()
	if now >= eagerDrainClock {
		t.Fatalf("drain clock %v, the eager fabric's was %v: the trailing no-ops are back", now, eagerDrainClock)
	}
	leaf := n.switches[1].out[0]
	if !leaf.busy || leaf.armed || leaf.busyUntil <= now {
		t.Fatalf("leaf port busy=%v armed=%v until %v at drain clock %v; want it lazily busy past the clock, or the test proves nothing",
			leaf.busy, leaf.armed, leaf.busyUntil, now)
	}
	n.fold()
	if p := parkedFor(n, &leaf.linkOut); len(p) != 1 || p[0].at <= now {
		t.Fatalf("parked for the leaf port at the drain clock: %+v; want the last credit update, unlanded", p)
	}
	if got := n.HCA(3).Counters().RxPackets; got != 15 {
		t.Fatalf("delivered %d of 15 packets", got)
	}
	if err := n.CheckQuiescent(); err != nil {
		t.Fatalf("a drained fabric with a lazily busy link and a parked update must read quiescent: %v", err)
	}
	// Reaching a horizon past the keys retires them the ordinary way.
	n.Sim().RunUntil(eagerDrainClock)
	n.fold()
	if leaf.isBusy() || n.parked.len != 0 || leaf.credits()[0] != cfg.HostIbufBytes {
		t.Fatalf("at the eager drain clock: busy=%v parked=%d credits=%d", leaf.isBusy(), n.parked.len, leaf.credits()[0])
	}
}

// TestCheckLinkArmedClauses breaks each piece of the on-demand
// bookkeeping by hand on a congested fabric and requires the checker
// rule to name it.
func TestCheckLinkArmedClauses(t *testing.T) {
	n := ckptNet(t)
	for src := 0; src < 3; src++ {
		n.HCA(ib.LID(src)).SetSource(&floodSource{src: ib.LID(src), dst: 3, remaining: -1})
	}
	n.Start()
	// Find an instant with every ingredient present: a busy armed port
	// with packets waiting, a stalled host, and an update parked.
	trunk := n.switches[0].out[4]
	var stalled *linkOut
	for at := sim.Time(0).Add(20 * sim.Microsecond); ; at = at.Add(7 * sim.Nanosecond) {
		if at > sim.Time(0).Add(60*sim.Microsecond) {
			t.Fatal("no instant with an armed trunk, a stalled transmitter and a parked update")
		}
		n.Sim().RunUntil(at)
		if err := n.CheckLinkArmed(); err != nil {
			t.Fatalf("intact fabric at %v: %v", at, err)
		}
		stalled = nil
		for _, h := range n.hcas[:3] {
			if h.out.state().stalled {
				stalled = &h.out
			}
		}
		if trunk.isBusy() && trunk.armed && trunk.pending > 0 && stalled != nil && n.parked.len > 0 && n.parked.at(0).taker != nil {
			break
		}
	}
	head := n.parked.at(0)
	cases := []struct {
		name    string
		corrupt func() (undo func())
		want    string
	}{
		{"armed flag lost with packets waiting", func() func() {
			trunk.armed = false
			return func() { trunk.armed = true }
		}, "no serializer-done event"},
		{"armed while idle", func() func() {
			busy := trunk.busy
			trunk.busy = false
			return func() { trunk.busy = busy }
		}, "armed while idle"},
		{"stall flag lost", func() func() {
			stalled.state().stalled = false
			return func() { stalled.state().stalled = true }
		}, "not marked stalled"},
		{"stalled with nothing waiting", func() func() {
			leaf2 := n.switches[1].out[1] // towards idle host 4
			leaf2.state().stalled = true
			return func() { leaf2.state().stalled = false }
		}, "marked stalled with waiting=false"},
		{"update parked for a stalled transmitter", func() func() {
			taker, link := head.taker, head.link
			head.taker, head.link = n.hcas[stalled.node], stalled.index
			n.links[link].nParked--
			stalled.state().nParked++
			return func() { head.taker, head.link = taker, link; n.links[link].nParked++; stalled.state().nParked-- }
		}, "stalled with 1 credit updates parked"},
		{"per-link count off", func() func() {
			n.links[head.link].nParked++
			return func() { n.links[head.link].nParked-- }
		}, "the ring holds"},
		{"parked update filed under another link", func() func() {
			head.link = stalled.index
			return func() { head.link = head.taker.txLink().index }
		}, "filed under link"},
		{"parked update on a lane the fabric lacks", func() func() {
			vl := head.vl
			head.vl = 9
			return func() { head.vl = vl }
		}, "on vl 9"},
		{"parked keys out of order", func() func() {
			seq := head.seq
			n.parked.len++
			*n.parked.at(n.parked.len - 1) = *head
			n.links[head.link].nParked++
			return func() { n.parked.len--; n.links[head.link].nParked--; head.seq = seq }
		}, "out of order"},
		{"credits plus parked above the buffer", func() func() {
			l := head.taker.txLink()
			l.credits()[head.vl] += l.capBytes()
			return func() { l.credits()[head.vl] -= l.capBytes() }
		}, "exceed capacity"},
	}
	for _, tc := range cases {
		undo := tc.corrupt()
		err := n.CheckLinkArmed()
		undo()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error mentioning %q", tc.name, err, tc.want)
		}
		if err := n.CheckLinkArmed(); err != nil {
			t.Fatalf("%s: undo left the fabric broken: %v", tc.name, err)
		}
	}
}
