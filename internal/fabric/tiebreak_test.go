package fabric

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"testing"

	"repro/internal/ib"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topo"
)

// The tie-break scenarios drive one switch output port of a two-switch
// chain by hand — scripted packet arrivals, credit updates and link
// transitions placed on exact picoseconds and on chosen sides of a
// sequence-number tie — and record everything observable: the full
// flight-recorder stream and every PortVLState a hook was handed.
//
// testdata/tiebreak_golden.json was recorded by running this very file
// against the fabric as it was before serializer-done events and credit
// updates became on-demand (every one of them scheduled, always), so it
// is the specification: whatever the fabric elides, each tie must still
// resolve as it did when nothing was. The file uses only what that
// fabric already had; the assertions about the new bookkeeping live in
// lazy_test.go, which re-runs the scenarios with a probe attached.
var updateTiebreak = flag.Bool("update-tiebreak", false, "rewrite testdata/tiebreak_golden.json (run against the pre-elision fabric only)")

const tiebreakGolden = "testdata/tiebreak_golden.json"

// tieRig is the hand-driven fixture: sw0 carries hosts 0–2 on in-ports
// 0–2 and reaches sw1 (hosts 3–5) through out-port 4, the port under
// test.
type tieRig struct {
	t     *testing.T
	n     *Network
	op    *swOutPort
	trace []string
	ids   uint64
	// probe, when set, is called before (done=false) and after every
	// scripted step.
	probe func(tag string, done bool)
	// withheld is the credit taken from op at set-up and handed back by
	// settle, so the run still ends quiescent.
	withheld int
}

const tieT0 = sim.Time(1_000_000) // 1 µs: the first scripted instant

func newTieRig(t *testing.T, withHook bool) *tieRig {
	t.Helper()
	tp, err := topo.LinearChain(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	r := &tieRig{t: t}
	var hooks Hooks
	if withHook {
		hooks.SwitchEnqueue = func(sw, port int, p *ib.Packet, st PortVLState) {
			if sw == 0 && port == 4 {
				r.logf("hook-enqueue pkt%d credits=%d queued=%d", p.ID, st.CreditBytes, st.QueuedBytes)
			}
		}
	}
	r.n = buildNet(t, tp, testCfg(), hooks)
	r.op = r.n.switches[0].out[4]
	bus := obs.New()
	bus.Subscribe(obs.ConsumerFunc(func(e obs.Event) {
		where := fmt.Sprintf("host%d", e.Node)
		if e.Switch {
			where = fmt.Sprintf("sw%d.p%d", e.Node, e.Port)
		}
		r.trace = append(r.trace, fmt.Sprintf("%d %s %s pkt%d vl%d bytes=%d queued=%d credits=%d",
			int64(e.Time), e.Kind, where, e.PktID, e.VL, e.Bytes, e.QueuedBytes, e.CreditBytes))
	}))
	r.n.SetBus(bus)
	return r
}

func (r *tieRig) logf(format string, args ...interface{}) {
	r.trace = append(r.trace, fmt.Sprintf("%d ", int64(r.n.simr.Now()))+fmt.Sprintf(format, args...))
}

// at scripts f at absolute time t. Steps scripted before the run take
// the lowest sequence numbers; a step scripted from inside another
// step's callback sorts behind everything that callback already did.
func (r *tieRig) at(t sim.Time, tag string, f func()) {
	r.n.simr.ScheduleAt(t, func() {
		if r.probe != nil {
			r.probe(tag, false)
		}
		f()
		if r.probe != nil {
			r.probe(tag, true)
		}
	})
}

// inject plays host inPort transmitting a packet of the given payload
// to host 3 and the packet reaching sw0 this instant: the host's credit
// is spent and the input buffer admits the packet, exactly the books a
// real transmission leaves behind.
func (r *tieRig) inject(inPort, payload int) {
	r.ids++
	p := &ib.Packet{ID: r.ids, Type: ib.DataPacket, Src: ib.LID(inPort), Dst: 3, PayloadBytes: payload, MsgID: r.ids, MsgPackets: 1}
	r.n.hcas[inPort].out.credits()[0] -= p.WireBytes()
	r.n.switches[0].in[inPort].arrive(p)
}

// withhold lowers op's credits to leave, as if the downstream buffer
// were that full; settle returns the difference late in the run.
func (r *tieRig) withhold(leave int) {
	r.withheld = r.op.credits()[0] - leave
	r.op.credits()[0] = leave
}

// credit sends a credit update of bytes towards op now; it lands one
// propagation delay (10 ns) later.
func (r *tieRig) credit(bytes int) {
	r.withheld -= bytes
	r.n.sendCredit(r.op, r.op.index, 0, bytes)
}

// finish hands back what is still withheld, drains the run and
// requires a quiescent fabric.
func (r *tieRig) finish() []string {
	r.at(tieT0.Add(100*sim.Microsecond), "settle", func() {
		if r.withheld > 0 {
			r.credit(r.withheld)
		}
	})
	r.n.simr.Run()
	if err := r.n.CheckQuiescent(); err != nil {
		r.t.Fatal(err)
	}
	return r.trace
}

const (
	tieSmall    = 1024                 // payload of the packet that occupies the serializer in the credit scenarios
	tieSmallSer = 428 * sim.Nanosecond // its 1070 wire bytes at 20 Gbit/s
)

// tieScenarios maps a name to a script. Each returns the rig after
// scripting (before the run) so lazy_test.go can attach a probe.
var tieScenarios = map[string]func(t *testing.T) *tieRig{
	// A occupies the serializer until T. B and C arrive at exactly T in
	// events whose sequence numbers are BELOW the serializer-done key
	// (they were scripted before A was ever transmitted): both find the
	// port busy and queue, and the arbiter — pointer past A's in-port 0 —
	// then grants C (in-port 1) before B (in-port 2).
	"enqueue_at_busy_until_seq_below": func(t *testing.T) *tieRig {
		r := newTieRig(t, false)
		r.at(tieT0, "A", func() { r.inject(0, tieSmall) })
		r.at(tieT0.Add(tieSmallSer), "B", func() { r.inject(2, ib.MTU) })
		r.at(tieT0.Add(tieSmallSer), "C", func() { r.inject(1, ib.MTU) })
		return r
	},
	// The same arrivals, scripted after A's transmission so their
	// sequence numbers are ABOVE the serializer-done key: the port is
	// idle again when B arrives, B is granted on the spot and C waits.
	"enqueue_at_busy_until_seq_above": func(t *testing.T) *tieRig {
		r := newTieRig(t, false)
		r.at(tieT0, "A", func() {
			r.inject(0, tieSmall)
			r.at(tieT0.Add(tieSmallSer), "B", func() { r.inject(2, ib.MTU) })
			r.at(tieT0.Add(tieSmallSer), "C", func() { r.inject(1, ib.MTU) })
		})
		return r
	},
	// The port holds credit for A only. B (MTU) queues behind A; A's own
	// credit comes back mid-serialization (1070 bytes, still short of
	// B's 2094). The missing 1024 land at exactly T, in an update sent
	// after A's transmission (sequence number above the serializer-done
	// key): the done callback must still find the lane short, publish
	// the stall, and only then may the update grant B — all at T.
	"credit_at_busy_until": func(t *testing.T) *tieRig {
		r := newTieRig(t, false)
		r.withhold(tieSmall + ib.HeaderBytes)
		r.at(tieT0, "A", func() { r.inject(0, tieSmall) })
		r.at(tieT0.Add(sim.Nanosecond), "B", func() { r.inject(1, ib.MTU) })
		r.at(tieT0.Add(tieSmallSer-10*sim.Nanosecond), "credit", func() { r.credit(1024) })
		return r
	},
	// One picosecond earlier the update has landed by the time the
	// serializer is done: no stall, B goes out at T.
	"credit_1ps_before_busy_until": func(t *testing.T) *tieRig {
		r := newTieRig(t, false)
		r.withhold(tieSmall + ib.HeaderBytes)
		r.at(tieT0, "A", func() { r.inject(0, tieSmall) })
		r.at(tieT0.Add(sim.Nanosecond), "B", func() { r.inject(1, ib.MTU) })
		r.at(tieT0.Add(tieSmallSer-10*sim.Nanosecond-1), "credit", func() { r.credit(1024) })
		return r
	},
	// Two updates in flight to one link at once (sent 5 ns apart, 10 ns
	// of flight each), with arrivals reading the counter through the
	// enqueue hook around their landings: D1 between the two, D2 at the
	// second landing instant but ahead of it in sequence, D3 at the same
	// instant behind it.
	"two_credits_in_one_propdelay": func(t *testing.T) *tieRig {
		r := newTieRig(t, true)
		r.withhold(r.op.credits()[0] - 300)
		r.at(tieT0, "A", func() { r.inject(0, ib.MTU) })
		r.at(tieT0.Add(100*sim.Nanosecond), "c1", func() { r.credit(100) })
		r.at(tieT0.Add(112*sim.Nanosecond), "D1", func() { r.inject(1, 256) })
		r.at(tieT0.Add(115*sim.Nanosecond), "D2", func() { r.inject(2, 256) })
		r.at(tieT0.Add(105*sim.Nanosecond), "c2", func() {
			r.credit(200)
			r.at(tieT0.Add(115*sim.Nanosecond), "D3", func() { r.inject(1, 256) })
		})
		return r
	},
	// More updates in flight than the fabric will defer: 80 one-byte
	// updates leave in one instant. An arrival after they land reads the
	// counter with all 80 in it.
	"more_credits_than_the_ring_holds": func(t *testing.T) *tieRig {
		r := newTieRig(t, true)
		r.withhold(r.op.credits()[0] - 80)
		r.at(tieT0, "A", func() { r.inject(0, ib.MTU) })
		r.at(tieT0.Add(50*sim.Nanosecond), "burst", func() {
			for i := 0; i < 80; i++ {
				r.credit(1)
			}
		})
		r.at(tieT0.Add(55*sim.Nanosecond), "D1", func() { r.inject(1, 256) })
		r.at(tieT0.Add(60*sim.Nanosecond), "D2", func() { r.inject(2, 256) })
		return r
	},
	// The port is down with A queued and 50 bytes short of credit for
	// it; the 50 are in flight when the port comes back up. Coming up
	// runs the arbiter: it must see the lane short (the update has not
	// landed), publish the stall, and the update must then grant A.
	"link_up_before_credit_lands": func(t *testing.T) *tieRig {
		r := newTieRig(t, false)
		r.withhold(ib.MTU + ib.HeaderBytes - 50)
		r.at(tieT0.Add(-sim.Nanosecond), "down", func() { r.n.SetLinkDown(true, 0, 4, true) })
		r.at(tieT0, "A", func() { r.inject(0, ib.MTU) })
		r.at(tieT0.Add(100*sim.Nanosecond), "credit", func() { r.credit(50) })
		r.at(tieT0.Add(105*sim.Nanosecond), "up", func() { r.n.SetLinkDown(true, 0, 4, false) })
		return r
	},
	// Coming up at the landing instant itself, ahead of the update in
	// sequence: still short, stall first, then the grant.
	"link_up_at_credit_landing": func(t *testing.T) *tieRig {
		r := newTieRig(t, false)
		r.withhold(ib.MTU + ib.HeaderBytes - 50)
		r.at(tieT0.Add(-sim.Nanosecond), "down", func() { r.n.SetLinkDown(true, 0, 4, true) })
		r.at(tieT0, "A", func() { r.inject(0, ib.MTU) })
		r.at(tieT0.Add(110*sim.Nanosecond), "up", func() { r.n.SetLinkDown(true, 0, 4, false) })
		r.at(tieT0.Add(100*sim.Nanosecond), "credit", func() { r.credit(50) })
		return r
	},
	// One nanosecond later the update has landed: coming up grants A
	// directly.
	"link_up_after_credit_landed": func(t *testing.T) *tieRig {
		r := newTieRig(t, false)
		r.withhold(ib.MTU + ib.HeaderBytes - 50)
		r.at(tieT0.Add(-sim.Nanosecond), "down", func() { r.n.SetLinkDown(true, 0, 4, true) })
		r.at(tieT0, "A", func() { r.inject(0, ib.MTU) })
		r.at(tieT0.Add(100*sim.Nanosecond), "credit", func() { r.credit(50) })
		r.at(tieT0.Add(111*sim.Nanosecond), "up", func() { r.n.SetLinkDown(true, 0, 4, false) })
		return r
	},
}

func TestTiebreakGolden(t *testing.T) {
	got := map[string][]string{}
	for name, script := range tieScenarios {
		got[name] = script(t).finish()
	}
	if *updateTiebreak {
		blob, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(tiebreakGolden, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	blob, err := os.ReadFile(tiebreakGolden)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string][]string
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden holds %d scenarios, %d ran", len(want), len(got))
	}
	for name, w := range want {
		g := got[name]
		if reflect.DeepEqual(g, w) {
			continue
		}
		for i := 0; i < len(g) || i < len(w); i++ {
			var gl, wl string
			if i < len(g) {
				gl = g[i]
			}
			if i < len(w) {
				wl = w[i]
			}
			if gl != wl {
				t.Errorf("%s: record %d\n   got %q\ngolden %q", name, i, gl, wl)
				break
			}
		}
	}
}
