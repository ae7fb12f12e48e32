package fabric

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ib"
	"repro/internal/obs"
	"repro/internal/sim"
)

// The lockstep rig of arbiter_test.go suppresses the port's own arbiter
// call, so the idle-port bypass in enqueue never runs there. This file
// is the bypass's differential: the port's real entry points — arrive /
// enqueue, addCredit, txDone, SetLinkDown — on one fabric, against the
// port as it was before the bypass on another: file the packet under its
// VoQ first, then one arbitration pass (tryTxLinear), then the stall if
// the pass granted nothing.

// swallow is a downstream endpoint that takes packets and never returns
// a credit; the script plays the receiver's flow control.
type swallow struct{}

func (swallow) arrive(*ib.Packet)     {}
func (swallow) dropArrive(*ib.Packet) {}

// bypassRig drives port 0 of a single crossbar. ref selects the
// reference behaviour for every entry point.
type bypassRig struct {
	*arbRig
	n   *Network
	ref bool
}

// refTxAct is the reference rig's serializer-done callback.
type refTxAct struct{ r *bypassRig }

func (a refTxAct) Act() {
	a.r.op.linkOut.txDone()
	a.r.arbitrate()
}

func newBypassRig(t *testing.T, ports, vls int, ref bool) *bypassRig {
	r := &bypassRig{arbRig: newArbRig(t, ports, vls, nil), ref: ref}
	r.n = r.op.net
	r.op.dst = swallow{}
	if ref {
		r.op.txAct = refTxAct{r}
	}
	return r
}

// arbitrate is tryTx before the bitmap: the same entry conditions, a
// linear scan, and the stall when nothing could be granted.
func (r *bypassRig) arbitrate() {
	op := r.op
	if op.busyWith(op.pending > 0) || op.down || op.pending == 0 {
		return
	}
	r.n.fold()
	before := op.pending
	op.tryTxLinear()
	if op.pending == before {
		r.n.stall(&op.linkOut)
	}
}

// arrive plays host inPort having transmitted p and p reaching the
// switch now: the host's credit is spent, so the credit the grant
// returns balances.
func (r *bypassRig) arrive(inPort int, p *ib.Packet) {
	*r.n.hcas[inPort].out.credit(p.VL) -= p.WireBytes()
	ip := r.op.sw.in[inPort]
	if !r.ref {
		ip.arrive(p)
		return
	}
	op, vl := r.op, p.VL
	ip.free()[vl] -= p.WireBytes()
	k := inPort<<op.sw.vlShift | int(vl)
	op.voqs()[k].Push(p)
	op.occ()[k>>6] |= 1 << (k & 63)
	op.qbytes()[vl] += p.WireBytes()
	op.pending++
	r.n.bus.QueueSampled(r.n.simr.Now(), op.sw.index, op.port, op.hostFacing, vl, op.qbytes()[vl])
	r.arbitrate()
}

func (r *bypassRig) credit(vl ib.VL, bytes int) {
	if !r.ref {
		r.op.addCredit(vl, bytes)
		return
	}
	r.op.addCredits(vl, bytes)
	r.arbitrate()
}

func (r *bypassRig) setDown(down bool) {
	if !r.ref {
		r.n.SetLinkDown(true, 0, 0, down)
		return
	}
	r.op.down = down
	if !down {
		r.arbitrate()
	}
}

// idle reports, without retiring anything, whether the serializer reads
// as free.
func (r *bypassRig) idle() bool {
	op := r.op
	return !op.busy || !op.armed && r.n.simr.Passed(op.busyUntil, op.txSeq)
}

// portState is the scalar state the two ports must agree on after every
// step; slabs returns the stretches compared beside it.
type portState struct {
	rr, pending        int32
	busy, armed, down  bool
	busyUntil          sim.Time
	txSeq              uint64
	link               linkState
	parked             int
	nextSeq, processed uint64
}

func (r *bypassRig) state() portState {
	op := r.op
	// What has landed or passed counts as settled, whichever rig's
	// checker happened to fold or retire it first.
	r.n.fold()
	return portState{
		rr: op.rr, pending: op.pending, busy: op.isBusy(), armed: op.armed, down: op.down,
		busyUntil: op.busyUntil, txSeq: op.txSeq, link: *op.linkOut.state(), parked: r.n.parked.len,
		nextSeq: r.n.simr.ExportKernel().Seq, processed: r.n.simr.Processed(),
	}
}

// slabs returns the port's credits, queued bytes and occupancy words,
// and every counter of the free slab (the switch's input buffers and the
// hosts' receive buffers).
func (r *bypassRig) slabs() (ints [][]int, occ []uint64) {
	return [][]int{r.op.credits(), r.op.qbytes(), r.n.free}, r.op.occ()
}

// TestBypassMatchesPushThenArbitrate drives both rigs with the same
// random script of arrivals, credit returns, link transitions and
// waiting, on a clock that moves in steps chosen to land short of, on
// and past serializer completions, and requires after every step the
// same PacketSent / CreditStalled / QueueSampled stream, the same
// arbiter pointer, pending count, serializer key, stall flag, credits,
// queued bytes, occupancy words and input-buffer space, the same number
// of events executed and the same next sequence number. Scripting one to
// three steps ahead puts a step's event on either side of the keys the
// steps before it reserve. A prologue walks through the bypass taken
// behind a serializer whose unarmed key has passed, the bypass refused
// (queued and stalled) and a down link at an idle empty port; the random
// script after it is for breadth.
func TestBypassMatchesPushThenArbitrate(t *testing.T) {
	for _, ports := range []int{2, 36, 64, 65} {
		for _, vls := range []int{1, 2, 15} {
			t.Run(fmt.Sprintf("ports=%d/vls=%d", ports, vls), func(t *testing.T) {
				checkBypassEquivalence(t, ports, vls, int64(ports*100+vls))
			})
		}
	}
}

func checkBypassEquivalence(t *testing.T, ports, vls int, seed int64) {
	port, ref := newBypassRig(t, ports, vls, false), newBypassRig(t, ports, vls, true)
	rigs := []*bypassRig{port, ref}
	rng := rand.New(rand.NewSource(seed))
	cfg := port.n.cfg
	owed := make([]int, vls) // credits consumed downstream, not yet returned
	seen := 0                // log entries already compared
	now := sim.Time(0)
	var id uint64
	var steps, bypassed, refused, downAlone, lazilyRetired int

	same := func(what string) {
		t.Helper()
		if a, b := port.state(), ref.state(); a != b {
			t.Fatalf("step %d (%s):\n port      %+v\n reference %+v", steps, what, a, b)
		}
		ints, occ := port.slabs()
		refInts, refOcc := ref.slabs()
		for i, name := range []string{"credits", "queued bytes", "free bytes"} {
			if !slices.Equal(ints[i], refInts[i]) {
				t.Fatalf("step %d (%s): %s %v, reference %v", steps, what, name, ints[i], refInts[i])
			}
		}
		if !slices.Equal(occ, refOcc) {
			t.Fatalf("step %d (%s): occupancy %#x, reference %#x", steps, what, occ, refOcc)
		}
		if len(port.log) != len(ref.log) {
			t.Fatalf("step %d (%s): %d events published, reference %d", steps, what, len(port.log), len(ref.log))
		}
		for ; seen < len(port.log); seen++ {
			e := port.log[seen]
			if e != ref.log[seen] {
				t.Fatalf("step %d (%s): event %d is %+v, reference %+v", steps, what, seen, e, ref.log[seen])
			}
			if e.Kind == obs.KindPacketSent {
				owed[e.VL] += e.Bytes
			}
		}
	}

	// A step is one scripted call on each rig, gap after the one before.
	type scripted struct {
		gap  sim.Duration
		what string
		do   func(r *bypassRig) // nil: only the clock moves
	}
	// run scripts a batch of steps ahead of the clock on both simulators
	// — so a step's event sorts before every key the batch's earlier
	// steps reserve — then runs to each in turn and compares.
	run := func(batch ...scripted) {
		t.Helper()
		at := make([]sim.Time, len(batch))
		for i, s := range batch {
			now = now.Add(s.gap)
			at[i] = now
			for _, r := range rigs {
				if s.do != nil {
					r.n.simr.ScheduleAt(now, func() { s.do(r) })
				}
			}
		}
		for i, s := range batch {
			for _, r := range rigs {
				r.n.simr.RunUntil(at[i])
			}
			same(s.what)
			steps++
		}
	}
	arrive := func(gap sim.Duration, inPort int, p ib.Packet) scripted {
		p.ID, p.Src = id, 1
		id++
		return scripted{gap, "arrive", func(r *bypassRig) {
			before, idle := r.op.pending, r.idle()
			if r == port && before == 0 && idle {
				if r.op.down {
					downAlone++
				} else if r.op.busy {
					lazilyRetired++
				}
			}
			q := p // each fabric links its own copy
			r.arrive(inPort, &q)
			if r == port && before == 0 && idle && !r.op.down {
				if r.op.pending == 0 {
					bypassed++
				} else if r.op.linkOut.state().stalled {
					refused++
				}
			}
		}}
	}
	credit := func(gap sim.Duration, vl, bytes int) scripted {
		owed[vl] -= bytes
		return scripted{gap, "credit", func(r *bypassRig) { r.credit(ib.VL(vl), bytes) }}
	}
	toggle := func(gap sim.Duration) scripted {
		return scripted{gap, "link", func(r *bypassRig) { r.setDown(!r.op.down) }}
	}
	data, cnp := ib.Packet{Type: ib.DataPacket, PayloadBytes: ib.MTU}, ib.Packet{Type: ib.CNPPacket}
	long := 3 * sim.Microsecond // outlasts any serialization

	// Prologue, one scene per rule of the bypass. The bypass itself, each
	// time behind a serializer that reads busy until asked: MTU packets
	// arrive one at a time at the idle port until lane 0 is out of
	// credits for another.
	for *port.op.credit(0) >= data.WireBytes() {
		run(arrive(long, 0, data))
	}
	if bypassed == 0 || lazilyRetired == 0 || port.op.pending != 0 {
		t.Fatalf("prologue: %d bypasses, %d behind a passed unarmed key, %d pending", bypassed, lazilyRetired, port.op.pending)
	}
	// Refused: the next one finds the port idle and empty but the lane
	// short, is queued, and stalls the link; a control packet behind it
	// still fits. Returning what is owed releases the head.
	run(arrive(long, 0, data))
	if refused != 1 || port.op.pending != 1 {
		t.Fatalf("prologue: bypass refused %d times with %d pending, want 1 and 1", refused, port.op.pending)
	}
	run(arrive(long, 0, cnp), credit(long, 0, owed[0]))
	// Down: an arrival at an idle, empty, down port waits for the link.
	run(toggle(long), arrive(long, 0, data), toggle(long))
	if downAlone != 1 || port.op.pending != 0 {
		t.Fatalf("prologue: %d arrivals at a down idle port, %d pending after it came up", downAlone, port.op.pending)
	}

	// Then breadth. Clock steps: none, less than any serialization,
	// exactly a control and a data packet's serialization (the next step
	// then lands on the key of a transmission the last one started), and
	// long enough for everything in flight to finish.
	gaps := []sim.Duration{0, sim.Nanosecond, cfg.PropDelay,
		cfg.LinkRate.TxTime(cnp.WireBytes()), cfg.LinkRate.TxTime(data.WireBytes()),
		cfg.LinkRate.TxTime(data.WireBytes()) + 1, long}
	pArrive, pCredit := 50, 25
	for phase := 0; steps < 6000; phase++ {
		if phase%60 == 0 {
			// Flooded with credits scarce, trickling with credits
			// plentiful, and everything between, so the port is found
			// backlogged, idle with credits and idle without.
			pArrive, pCredit = []int{8, 30, 60}[rng.Intn(3)], []int{4, 20, 35}[rng.Intn(3)]
		}
		var batch []scripted
		sent := map[[2]int]int{} // wire bytes this batch already sends, per (in-port, lane)
		for b := 1 + rng.Intn(3); b > 0; b-- {
			gap := gaps[rng.Intn(len(gaps))]
			switch roll := rng.Intn(100); {
			case roll < pArrive:
				p := data
				if rng.Intn(10) < 3 {
					p = cnp
				}
				p.VL = ib.VL(rng.Intn(vls))
				inPort := rng.Intn(ports)
				// The upstream credit discipline: no arrival without
				// buffer space, counting what this batch already sends.
				lane := [2]int{inPort, int(p.VL)}
				if sent[lane] += p.WireBytes(); sent[lane] > port.op.sw.in[inPort].free()[p.VL] {
					batch = append(batch, scripted{gap, "wait", nil})
					continue
				}
				batch = append(batch, arrive(gap, inPort, p))
			case roll < pArrive+pCredit:
				// Trickle credits back in sub-packet, CNP-sized and
				// data-sized pieces so heads of both sizes meet lanes that
				// fit one and not the other.
				vl := rng.Intn(vls)
				bytes := []int{40, cnp.WireBytes(), data.WireBytes(), owed[vl]}[rng.Intn(4)]
				if bytes > owed[vl] {
					bytes = owed[vl]
				}
				if bytes == 0 {
					batch = append(batch, scripted{gap, "wait", nil})
					continue
				}
				batch = append(batch, credit(gap, vl, bytes))
			case roll < pArrive+pCredit+4:
				batch = append(batch, toggle(gap))
			default:
				batch = append(batch, scripted{gap, "wait", nil})
			}
		}
		run(batch...)
		if phase%20 == 0 {
			port.n.CheckState(func(rule string, err error) { t.Fatalf("step %d: %s: %v", steps, rule, err) })
		}
	}

	// Drain: link up, everything owed returned, until both ports are
	// empty and idle, still in lockstep.
	for guard := 0; port.op.pending > 0 || !port.idle() || port.op.down; guard++ {
		if guard > 1000 {
			t.Fatalf("port did not drain: %d packets pending", port.op.pending)
		}
		var batch []scripted
		if port.op.down {
			batch = append(batch, toggle(long))
		}
		for vl, b := range owed {
			if b > 0 {
				batch = append(batch, credit(0, vl, b))
			}
		}
		run(append(batch, scripted{long, "wait", nil})...)
	}
	port.n.CheckState(func(rule string, err error) { t.Fatalf("after the drain: %s: %v", rule, err) })
	grants := 0
	for _, e := range port.log {
		if e.Kind == obs.KindPacketSent {
			grants++
		}
	}
	if grants != int(id) {
		t.Fatalf("%d packets arrived, %d granted", id, grants)
	}
}
