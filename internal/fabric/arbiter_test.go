package fabric

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ib"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topo"
)

// tryTxLinear is the arbiter the occupancy bitmap replaced, kept as the
// reference the property test drives in lockstep with tryTx: probe every
// ring slot from the round-robin pointer and offer the grant to each
// non-empty queue in turn.
func (op *swOutPort) tryTxLinear() {
	if op.busy || op.down || op.pending == 0 {
		return
	}
	voqs := op.voqs()
	for i := range voqs {
		k := (int(op.rr) + i) % len(voqs)
		if !voqs[k].Empty() && op.grant(k) {
			return
		}
	}
}

// arbRig is one switch output port (port 0 of a single crossbar) driven
// by hand: the test plays the roles of the input ports, the downstream
// receiver and the serializer, and chooses which arbiter runs.
type arbRig struct {
	op  *swOutPort
	arb func(*swOutPort)
	log []obs.Event // every PacketSent, CreditStalled and QueueSampled, in order
}

func newArbRig(t testing.TB, ports, vls int, arb func(*swOutPort)) *arbRig {
	t.Helper()
	tp, err := topo.SingleSwitch(ports)
	if err != nil {
		t.Fatal(err)
	}
	r, err := topo.ComputeLFT(tp)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testCfg()
	cfg.NumVLs = vls
	n, err := New(sim.New(), tp, r, cfg, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	rig := &arbRig{op: n.switches[0].out[0], arb: arb}
	bus := obs.New()
	bus.Subscribe(obs.ConsumerFunc(func(e obs.Event) { rig.log = append(rig.log, e) }),
		obs.KindPacketSent, obs.KindCreditStalled, obs.KindQueueSampled)
	n.SetBus(bus)
	return rig
}

// quietly runs f with the port's built-in arbiter call suppressed (the
// serializer reads as busy with its done event already armed), then
// runs the arbiter under test exactly where the port would have.
func (r *arbRig) quietly(f func()) {
	busy, armed := r.op.busy, r.op.armed
	r.op.busy, r.op.armed = true, true
	f()
	r.op.busy, r.op.armed = busy, armed
	r.arb(r.op)
}

func (r *arbRig) enqueue(inPort int, p ib.Packet) {
	r.quietly(func() { r.op.enqueue(r.op.sw.in[inPort], &p) })
}

func (r *arbRig) credit(vl ib.VL, bytes int) {
	r.quietly(func() { r.op.addCredit(vl, bytes) })
}

func (r *arbRig) txDone() {
	r.op.linkOut.txDone()
	r.arb(r.op)
}

// TestArbiterMatchesLinearScan drives the bitmap arbiter and the linear
// reference with identical random enqueue / credit-return / tx-done
// sequences and requires identical behaviour at every step: the same
// grants in the same order, the same credit-stall publications (heads
// that did not fit are skipped, not waited on), the same round-robin
// pointer. Port and lane counts cover rings that end inside a bitmap
// word and at its end (2, 36, 64 ports on one lane) and multi-word
// bitmaps (2 or 15 lanes; 65 ports); CNPs queued behind and beside MTU
// data give the heads different wire sizes, so a lane short of credits stalls some VoQs and
// not others.
func TestArbiterMatchesLinearScan(t *testing.T) {
	for _, ports := range []int{2, 36, 64, 65} {
		for _, vls := range []int{1, 2, 15} {
			// A sixteenth of the in-ports sending leaves the bitmap
			// sparse, all of them fill it.
			for _, busyPorts := range []int{(ports + 15) / 16, ports} {
				name := fmt.Sprintf("ports=%d/vls=%d/busy=%d", ports, vls, busyPorts)
				t.Run(name, func(t *testing.T) {
					checkArbiterEquivalence(t, ports, vls, busyPorts, int64(ports*1000+vls*10+busyPorts))
				})
			}
		}
	}
}

func checkArbiterEquivalence(t *testing.T, ports, vls, busyPorts int, seed int64) {
	bitmap := newArbRig(t, ports, vls, (*swOutPort).tryTx)
	linear := newArbRig(t, ports, vls, (*swOutPort).tryTxLinear)
	rng := rand.New(rand.NewSource(seed))
	owed := make([]int, vls) // credits consumed downstream, not yet returned
	seen := 0                // log entries already compared
	var id uint64

	same := func(step int, what string) {
		t.Helper()
		a, b := bitmap.op, linear.op
		if a.rr != b.rr || a.busy != b.busy || a.pending != b.pending {
			t.Fatalf("step %d (%s): rr/busy/pending %d/%v/%d, reference %d/%v/%d",
				step, what, a.rr, a.busy, a.pending, b.rr, b.busy, b.pending)
		}
		if len(bitmap.log) != len(linear.log) {
			t.Fatalf("step %d (%s): %d events published, reference %d", step, what, len(bitmap.log), len(linear.log))
		}
		for ; seen < len(bitmap.log); seen++ {
			e := bitmap.log[seen]
			if e != linear.log[seen] {
				t.Fatalf("step %d (%s): event %d is %+v, reference %+v", step, what, seen, e, linear.log[seen])
			}
			if e.Kind == obs.KindPacketSent {
				owed[e.VL] += e.Bytes
			}
		}
		for w, word := range a.occ() {
			if ref := b.occ()[w]; word != ref {
				t.Fatalf("step %d (%s): occupancy word %d %#x, reference %#x", step, what, w, word, ref)
			}
		}
	}
	returnCredit := func(vl, bytes int) {
		owed[vl] -= bytes
		bitmap.credit(ib.VL(vl), bytes)
		linear.credit(ib.VL(vl), bytes)
	}

	const steps = 4000
	for step := 0; step < steps; step++ {
		switch r := rng.Intn(100); {
		case r < 50:
			p := ib.Packet{ID: id, Type: ib.DataPacket, PayloadBytes: ib.MTU, Src: 1, Dst: 0, VL: ib.VL(rng.Intn(vls))}
			if rng.Intn(10) < 3 {
				p.Type, p.PayloadBytes = ib.CNPPacket, 0
			}
			id++
			inPort := rng.Intn(busyPorts)
			bitmap.enqueue(inPort, p)
			linear.enqueue(inPort, p)
			same(step, "enqueue")
		case r < 75:
			vl := rng.Intn(vls)
			if owed[vl] == 0 {
				continue
			}
			// Trickle credits back in sub-packet, CNP-sized and
			// data-sized pieces so heads of both sizes meet lanes that
			// fit one and not the other.
			bytes := []int{40, ib.CNPBytes + ib.HeaderBytes, ib.MTU + ib.HeaderBytes, owed[vl]}[rng.Intn(4)]
			if bytes > owed[vl] {
				bytes = owed[vl]
			}
			returnCredit(vl, bytes)
			same(step, "credit")
		default:
			if !bitmap.op.busy {
				continue
			}
			bitmap.txDone()
			linear.txDone()
			same(step, "tx-done")
		}
		if step%64 == 0 {
			if err := bitmap.op.net.CheckVoQOccupancy(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}

	// Drain: return everything owed and finish every serialization
	// until both ports are empty, still in lockstep.
	for guard := 0; bitmap.op.pending > 0 || bitmap.op.busy; guard++ {
		if guard > 4*steps {
			t.Fatalf("port did not drain: %d packets pending", bitmap.op.pending)
		}
		for vl := range owed {
			if owed[vl] > 0 {
				returnCredit(vl, owed[vl])
				same(steps, "drain credit")
			}
		}
		if bitmap.op.busy {
			bitmap.txDone()
			linear.txDone()
			same(steps, "drain tx-done")
		}
	}
	if err := bitmap.op.net.CheckVoQOccupancy(); err != nil {
		t.Fatal(err)
	}
	var grants, stalls int
	for _, e := range bitmap.log {
		switch e.Kind {
		case obs.KindPacketSent:
			grants++
		case obs.KindCreditStalled:
			stalls++
		}
	}
	if grants != int(id) {
		t.Fatalf("%d packets enqueued, %d granted", id, grants)
	}
	if stalls == 0 {
		t.Fatal("sequence never stalled a head on credits; the skip path went untested")
	}
}

// BenchmarkArbiterSparse measures one arbitration pass over a radix-36
// port with a single occupied VoQ whose head is short of credits — the
// pass finds the queue, publishes nothing (no bus) and returns — for the
// bitmap arbiter and for the linear reference it replaced. One of 36 is
// the common shape at paper scale: most grants find one or two
// candidates in a 64-slot ring.
func BenchmarkArbiterSparse(b *testing.B) {
	for _, arb := range []struct {
		name string
		run  func(*swOutPort)
	}{{"bitmap", (*swOutPort).tryTx}, {"linear-reference", (*swOutPort).tryTxLinear}} {
		b.Run(arb.name, func(b *testing.B) {
			rig := newArbRig(b, 36, 1, arb.run)
			op := rig.op
			op.net.SetBus(nil)
			op.busy, op.armed = true, true
			op.enqueue(op.sw.in[35], &ib.Packet{Type: ib.DataPacket, PayloadBytes: ib.MTU})
			op.linkOut.txDone()
			op.credits()[0] = 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				arb.run(op)
			}
			if op.pending != 1 {
				b.Fatal("the creditless head was granted")
			}
		})
	}
}
