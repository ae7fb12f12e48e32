package fault

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/ib"
	"repro/internal/sim"
)

// Per-class RNG stream labels under the plan seed. Each drop class
// consumes its own substream so, e.g., raising the CNP drop probability
// never changes which data packets are lost.
const (
	labelDropData = iota + 1
	labelDropFECN
	labelDropCNP
	labelDropAck
	labelDropCredit
)

// Injector executes a Plan against one network: it schedules the
// link-state transitions on the simulator, implements fabric.Dropper
// for the probabilistic classes, and accumulates Stats. One injector
// serves one run; build a fresh one per network.
type Injector struct {
	net  *fabric.Network
	plan *Plan

	rngData, rngFECN, rngCNP, rngAck, rngCredit *sim.RNG

	// Overlap handling: a link is down while any flap or stall covers
	// it (depth > 0), and its serialization factor is the product of
	// all active degrades — recomputed from the active set, never
	// divided back out, so float error cannot accumulate.
	depth  map[LinkRef]int
	factor map[LinkRef][]float64

	stats       Stats
	lastPayload uint64
}

// NewInjector validates the plan against the network's link set, wires
// the injector in as the network's Dropper, and schedules every
// link-state transition at its absolute time. Call before Start. Zero
// plans are rejected — the caller is expected to skip injection
// entirely so the unfaulted code path stays identical to a plan-less
// run.
func NewInjector(net *fabric.Network, plan *Plan) (*Injector, error) {
	if plan.Zero() {
		return nil, fmt.Errorf("fault: refusing to inject a zero plan; treat it as absent")
	}
	if err := plan.Validate(FabricLinks(net.Topology())); err != nil {
		return nil, err
	}
	root := sim.NewRNG(plan.Seed)
	in := &Injector{
		net:       net,
		plan:      plan,
		rngData:   root.Derive(labelDropData),
		rngFECN:   root.Derive(labelDropFECN),
		rngCNP:    root.Derive(labelDropCNP),
		rngAck:    root.Derive(labelDropAck),
		rngCredit: root.Derive(labelDropCredit),
		depth:     make(map[LinkRef]int),
		factor:    make(map[LinkRef][]float64),
	}
	in.stats.LastFaultEnd = plan.LastFaultEnd()
	in.stats.FirstFaultStart = firstFaultStart(plan)

	simr := net.Sim()
	for _, f := range plan.Flaps {
		simr.ScheduleActionAt(f.At, &pushAct{in: in, link: f.Link})
		simr.ScheduleActionAt(f.At.Add(f.Dur), &popAct{in: in, link: f.Link})
	}
	for _, s := range plan.Stalls {
		simr.ScheduleActionAt(s.At, &pushAct{in: in, link: s.Link})
		simr.ScheduleActionAt(s.At.Add(s.Dur), &popAct{in: in, link: s.Link})
	}
	for _, d := range plan.Degrades {
		simr.ScheduleActionAt(d.At, &degradeAct{in: in, link: d.Link, factor: d.Factor, on: true})
		simr.ScheduleActionAt(d.At.Add(d.Dur), &degradeAct{in: in, link: d.Link, factor: d.Factor})
	}
	if !plan.Drop.zero() {
		net.SetDropper(in)
	}
	if plan.SampleEvery > 0 && plan.Horizon > 0 {
		simr.ScheduleAction(plan.SampleEvery, &sampleAct{in: in})
	}
	return in, nil
}

// The injector's scheduled transitions are named action types (not
// closures) so pending ones can be serialized into a checkpoint and
// rebuilt on restore; see ckpt.go.
type pushAct struct {
	in   *Injector
	link LinkRef
}

func (a *pushAct) Act() { a.in.push(a.link) }

type popAct struct {
	in   *Injector
	link LinkRef
}

func (a *popAct) Act() { a.in.pop(a.link) }

type degradeAct struct {
	in     *Injector
	link   LinkRef
	factor float64
	on     bool
}

func (a *degradeAct) Act() { a.in.degrade(a.link, a.factor, a.on) }

type sampleAct struct{ in *Injector }

func (a *sampleAct) Act() { a.in.sample() }

// push/pop maintain the down-depth of a link across overlapping flaps
// and stalls; only the 0→1 and 1→0 edges touch the fabric.
func (in *Injector) push(l LinkRef) {
	in.depth[l]++
	if in.depth[l] == 1 {
		in.stats.LinkDowns++
		in.net.SetLinkDown(l.AtSwitch, l.Node, l.Port, true)
	}
}

func (in *Injector) pop(l LinkRef) {
	in.depth[l]--
	if in.depth[l] == 0 {
		in.stats.LinkUps++
		in.net.SetLinkDown(l.AtSwitch, l.Node, l.Port, false)
	}
}

// degrade adds or removes one active factor and reapplies the product
// of whatever remains.
func (in *Injector) degrade(l LinkRef, fac float64, on bool) {
	active := in.factor[l]
	if on {
		active = append(active, fac)
	} else {
		for i, f := range active {
			if f == fac {
				active = append(active[:i], active[i+1:]...)
				break
			}
		}
	}
	in.factor[l] = active
	product := 1.0
	for _, f := range active {
		product *= f
	}
	in.net.SetLinkSlow(l.AtSwitch, l.Node, l.Port, product)
}

// draw is one Bernoulli trial on the class stream. Certain outcomes
// (p <= 0, p >= 1) consume no randomness, so a plan that never needs a
// coin flip leaves its streams untouched.
func draw(rng *sim.RNG, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return rng.Float64() < p
}

// DropPacket implements fabric.Dropper.
func (in *Injector) DropPacket(atSwitch, hostFacing bool, node, port int, p *ib.Packet) bool {
	switch {
	case p.Type == ib.CNPPacket:
		if draw(in.rngCNP, in.plan.Drop.CNP) {
			in.stats.DroppedCNP++
			return true
		}
	case p.Type == ib.AckPacket:
		if draw(in.rngAck, in.plan.Drop.Ack) {
			in.stats.DroppedAck++
			return true
		}
	case p.FECN:
		if draw(in.rngFECN, in.plan.Drop.FECN) {
			in.stats.DroppedFECN++
			return true
		}
	default:
		if draw(in.rngData, in.plan.Drop.Data) {
			in.stats.DroppedData++
			return true
		}
	}
	return false
}

// DropCredit implements fabric.Dropper.
func (in *Injector) DropCredit(vl ib.VL, bytes int) bool {
	if draw(in.rngCredit, in.plan.Drop.Credit) {
		in.stats.DroppedCredits++
		return true
	}
	return false
}

// sample records one receive-rate window and re-arms itself until the
// plan horizon.
func (in *Injector) sample() {
	var payload uint64
	for lid := 0; lid < in.net.NumHosts(); lid++ {
		payload += in.net.HCA(ib.LID(lid)).Counters().RxDataPayload
	}
	delta := payload - in.lastPayload
	in.lastPayload = payload
	now := in.net.Sim().Now()
	in.stats.Samples = append(in.stats.Samples, RateSample{
		T:    now,
		Gbps: float64(delta) * 8 / in.plan.SampleEvery.Seconds() / 1e9,
	})
	if next := now.Add(in.plan.SampleEvery); next <= in.plan.Horizon {
		in.net.Sim().ScheduleAction(in.plan.SampleEvery, &sampleAct{in: in})
	}
}

// Stats returns a snapshot of what the injector did, with the recovery
// metric computed from the samples.
func (in *Injector) Stats() *Stats {
	s := in.stats
	s.Samples = append([]RateSample(nil), in.stats.Samples...)
	s.Recovery = s.recovery(in.plan.SampleEvery)
	return &s
}

func firstFaultStart(p *Plan) sim.Time {
	first := sim.MaxTime
	for _, f := range p.Flaps {
		if f.At < first {
			first = f.At
		}
	}
	for _, s := range p.Stalls {
		if s.At < first {
			first = s.At
		}
	}
	for _, d := range p.Degrades {
		if d.At < first {
			first = d.At
		}
	}
	if first == sim.MaxTime {
		first = 0
	}
	return first
}

var _ fabric.Dropper = (*Injector)(nil)
