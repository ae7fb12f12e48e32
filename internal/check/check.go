// Package check is the simulation's runtime invariant layer: an opt-in
// checker that sweeps global conservation laws and local accounting
// rules at fixed simulated-time windows while a run executes, validates
// every congestion-control table transition as it is published, probes
// the future-event list's ordering contract on every executed event, and
// watches for forward-progress loss (deadlock or livelock) while packets
// are in flight.
//
// The checker is always compiled — there is no build tag — and costs
// nothing when not attached: everything the swept rules read is either
// model state or derived from it (packets on the wire are the fabric's
// live arrival actions), and the one hook it installs,
// sim.Simulator.SetExecHook, is nil otherwise. Nothing has to be switched
// on ahead of time, so a checker attaches at any event boundary: to a
// freshly built instance, or to one restored from a checkpoint whoever
// wrote it.
//
// Crucially, the checker never perturbs the trajectory it validates: it
// only reads model state between event executions and consumes
// flight-recorder events, and it never schedules simulator events of its
// own (whoever drives the run stops at NextSweep and calls Sweep). A
// checked run is bit-identical to an unchecked one, which internal/core's
// differential tests assert by digest.
//
// The rules on state are one function, Target.Rules. A live run is swept
// with it and a checkpoint restore ends with it, so "a legal state" is
// written once.
package check

import (
	"fmt"
	"io"

	"repro/internal/cc"
	"repro/internal/fabric"
	"repro/internal/ib"
	"repro/internal/obs"
	"repro/internal/sim"
)

// CCTarget is the slice of a congestion-control backend the checker
// reads: the structural self-check swept between events and the
// throttle summary shown in diagnostic dumps. Every cc.Backend
// satisfies it. When the target additionally exposes the classic IB CCA
// parameter set (the ibcc manager's Params method), published CCTI
// transitions are validated against it; rate-based backends have no CCT
// and must not publish KindCCTIChanged at all.
type CCTarget interface {
	CheckInvariants() error
	ThrottleSummary() (flows int, mean float64)
}

// Target bundles the model components one checker instance watches. Net,
// CC, Pool and SourcesPending may each be nil: the checker sweeps only
// the invariants its target supports, so unit tests can probe single
// rules in isolation.
type Target struct {
	// Sim is the driving simulator; required.
	Sim *sim.Simulator
	// Net is the fabric; enables the fabric's own state rules and the
	// custody census.
	Net *fabric.Network
	// CC is the congestion-control backend; enables the CC structural
	// sweep and (for the ibcc manager) gives CCTI transition validation
	// its parameter set.
	CC CCTarget
	// Pool is the packet pool the conservation law balances.
	Pool *ib.PacketPool
	// SourcesPending reports how many generated packets sit in source
	// queues awaiting injection (the non-fabric side of the custody
	// census).
	SourcesPending func() int
}

// Config tunes the checker.
type Config struct {
	// Window is the simulated time between invariant sweeps; default
	// 50 µs.
	Window sim.Duration
	// WatchdogAfter is how long the fabric may hold packets without a
	// single packet injection or delivery before the watchdog declares
	// lost forward progress; 0 means 1 ms, negative disables the
	// watchdog.
	WatchdogAfter sim.Duration
	// Diagnostics, when non-nil, receives a structured state dump when
	// the watchdog trips or the first violation of a run is recorded.
	Diagnostics io.Writer
	// MaxViolations bounds how many violations are recorded (further
	// ones are counted but dropped); default 32.
	MaxViolations int
}

// Violation is one observed invariant breach.
type Violation struct {
	// Time is the simulated time of detection.
	Time sim.Time
	// Rule names the invariant: "conservation", "pool-accounting",
	// "credit-bounds", "voq-occupancy", "link-armed", "cc-state",
	// "ccti-step", "fel-order", "watchdog".
	Rule string
	// Detail describes the breach.
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("[%v] %s: %s", v.Time, v.Rule, v.Detail)
}

// Report is the outcome of a checked run.
type Report struct {
	// Violations holds the recorded breaches in detection order, capped
	// at Config.MaxViolations.
	Violations []Violation
	// Total counts every detected breach, including dropped ones.
	Total int
	// Sweeps counts completed invariant sweeps.
	Sweeps int
	// EventsChecked counts executed events probed for FEL order.
	EventsChecked uint64
	// CCTISteps counts validated CCTI transitions.
	CCTISteps uint64
}

// Err returns nil for a clean report and an error summarizing the first
// violation otherwise.
func (r *Report) Err() error {
	if r.Total == 0 {
		return nil
	}
	return fmt.Errorf("check: %d invariant violation(s), first: %s", r.Total, r.Violations[0])
}

// Summary renders the one-line audit outcome every command prints, so
// a clean run reads identically whichever binary produced it.
func (r *Report) Summary() string {
	if r.Total == 0 {
		return fmt.Sprintf("clean (%d sweeps, %d events probed, %d CCTI steps validated)",
			r.Sweeps, r.EventsChecked, r.CCTISteps)
	}
	return fmt.Sprintf("%d violation(s) in %d sweeps, first: %s", r.Total, r.Sweeps, r.Violations[0])
}

// Checker validates a running simulation. Create with New at any event
// boundary, optionally Attach to the run's flight-recorder bus, then
// have the run's loop stop at NextSweep and call Sweep.
type Checker struct {
	t   Target
	cfg Config
	rep Report

	// next is the instant of the next windowed sweep.
	next sim.Time

	params     cc.Params // captured from t.CC; zero when CC is off
	ccParamsOK bool

	// FEL order probe state: the (time, seq) of the last executed event.
	lastTime sim.Time
	lastSeq  uint64
	haveLast bool

	// Watchdog state: the last observed injection+delivery total and
	// when it last moved.
	lastIO     uint64
	lastIOTime sim.Time
	tripped    bool

	// reg is the attached bus's aggregate table, read only by the
	// diagnostic dump (port totals and the hottest port).
	reg *obs.Registry

	// faultRing holds the most recent fault-layer events (link state
	// transitions and wire drops) so a watchdog or violation dump can
	// show what the fault injector did just before the failure.
	faultRing []obs.Event
	faultNext int
	faultSeen uint64

	dumped bool
}

// faultRingSize bounds the recent-fault-event window kept for dumps.
const faultRingSize = 16

// New builds a checker for the target and installs the FEL-order probe.
// The first sweep is due one window after the simulator's current
// instant, wherever in the run that is.
func New(t Target, cfg Config) *Checker {
	if t.Sim == nil {
		panic("check: target simulator required")
	}
	if cfg.Window <= 0 {
		cfg.Window = 50 * sim.Microsecond
	}
	if cfg.WatchdogAfter == 0 {
		cfg.WatchdogAfter = sim.Millisecond
	}
	if cfg.MaxViolations <= 0 {
		cfg.MaxViolations = 32
	}
	now := t.Sim.Now()
	c := &Checker{t: t, cfg: cfg, next: now.Add(cfg.Window), lastIOTime: now}
	t.Sim.SetExecHook(c.execEvent)
	if pp, ok := t.CC.(interface{ Params() cc.Params }); ok {
		c.params = pp.Params()
		c.ccParamsOK = true
	}
	return c
}

// Attach subscribes the checker's CCTI transition validator to the run's
// flight-recorder bus. The checker only consumes events; everything the
// model publishes is independent of subscriber count, so attaching does
// not perturb the trajectory.
func (c *Checker) Attach(bus *obs.Bus) {
	bus.Subscribe(obs.ConsumerFunc(c.consumeCCTI), obs.KindCCTIChanged)
	bus.Subscribe(obs.ConsumerFunc(c.consumeFault),
		obs.KindLinkDown, obs.KindLinkUp, obs.KindPacketDropped)
	c.reg = bus.Registry()
}

// consumeFault records fault-layer events into the bounded ring dumps
// read from.
func (c *Checker) consumeFault(e obs.Event) {
	c.faultSeen++
	if len(c.faultRing) < faultRingSize {
		c.faultRing = append(c.faultRing, e)
		return
	}
	c.faultRing[c.faultNext] = e
	c.faultNext = (c.faultNext + 1) % faultRingSize
}

// NextSweep returns the instant the next windowed sweep is due: one
// Config.Window after the previous one.
func (c *Checker) NextSweep() sim.Time { return c.next }

// Sweep checks every windowed invariant at the current event boundary.
// The run's loop calls it on reaching NextSweep and once more at the
// end of the run. Because sweeps run strictly between event executions
// and schedule nothing, the trajectory is identical to an unswept one.
func (c *Checker) Sweep() { c.sweep(c.t.Sim.Now()) }

// Report returns the accumulated outcome.
func (c *Checker) Report() *Report {
	rep := c.rep
	return &rep
}

// violate records one breach.
func (c *Checker) violate(t sim.Time, rule, format string, args ...interface{}) {
	c.rep.Total++
	if len(c.rep.Violations) < c.cfg.MaxViolations {
		c.rep.Violations = append(c.rep.Violations, Violation{Time: t, Rule: rule, Detail: fmt.Sprintf(format, args...)})
	}
	if c.cfg.Diagnostics != nil && !c.dumped {
		c.dumped = true
		fmt.Fprintf(c.cfg.Diagnostics, "check: first violation: %s\n", c.rep.Violations[len(c.rep.Violations)-1])
		c.dump(c.cfg.Diagnostics)
	}
}

// execEvent is the FEL-order probe, fired by the simulator after every
// event's time is committed and before its callback runs. The kernel's
// ordering contract: execution order is (time, seq) lexicographic, so
// time never decreases and, within one instant, sequence numbers
// strictly increase.
func (c *Checker) execEvent(t sim.Time, seq uint64) {
	c.rep.EventsChecked++
	if c.haveLast {
		if t.Before(c.lastTime) {
			c.violate(t, "fel-order", "event time went backwards: (%v, seq %d) after (%v, seq %d)",
				t, seq, c.lastTime, c.lastSeq)
		} else if t == c.lastTime && seq <= c.lastSeq {
			c.violate(t, "fel-order", "event seq not increasing at %v: seq %d after seq %d",
				t, seq, c.lastSeq)
		}
	}
	c.lastTime, c.lastSeq, c.haveLast = t, seq, true
}

// consumeCCTI validates one congestion-control table transition against
// the parameter set's legal moves: a BECN bump to
// min(old+CCTIIncrease, CCTILimit) that actually moved the index, or a
// recovery-timer decay of exactly one step above CCTIMin.
func (c *Checker) consumeCCTI(e obs.Event) {
	c.rep.CCTISteps++
	if !c.ccParamsOK {
		return
	}
	p := &c.params
	if e.NewCCTI > p.CCTILimit || e.NewCCTI < p.CCTIMin || e.OldCCTI > p.CCTILimit || e.OldCCTI < p.CCTIMin {
		c.violate(e.Time, "ccti-step", "flow %d->%d ccti %d->%d outside [%d, %d]",
			e.Src, e.Dst, e.OldCCTI, e.NewCCTI, p.CCTIMin, p.CCTILimit)
		return
	}
	bump := e.OldCCTI + p.CCTIIncrease
	if bump > p.CCTILimit || bump < e.OldCCTI {
		bump = p.CCTILimit
	}
	increase := e.NewCCTI == bump && e.NewCCTI != e.OldCCTI
	decay := e.OldCCTI > p.CCTIMin && e.NewCCTI == e.OldCCTI-1
	if !increase && !decay {
		c.violate(e.Time, "ccti-step", "flow %d->%d illegal ccti step %d->%d (increase=%d limit=%d min=%d)",
			e.Src, e.Dst, e.OldCCTI, e.NewCCTI, p.CCTIIncrease, p.CCTILimit, p.CCTIMin)
	}
}

// sweep is Sweep at an explicit instant: the state rules, then the
// watchdog, with violations stamped now.
func (c *Checker) sweep(now sim.Time) {
	c.rep.Sweeps++
	c.next = now.Add(c.cfg.Window)
	c.t.Rules(func(rule, detail string) { c.violate(now, rule, "%s", detail) })
	c.watchdog(now)
}

// sourcesPending counts the packets queued at sources awaiting
// injection.
func (t Target) sourcesPending() int {
	if t.SourcesPending == nil {
		return 0
	}
	return t.SourcesPending()
}

// Rules evaluates every rule on model state the target supports, at the
// current event boundary, and reports each one that does not hold. It is
// the rule pass of a live run's sweeps and of a checkpoint restore
// (core.RestoreSnapshot), which judges a snapshot by the laws a run is
// held to rather than by a list of its own.
func (t Target) Rules(report func(rule, detail string)) {
	if t.Net != nil {
		if t.Pool != nil {
			// Packet conservation: every live pool packet is either
			// queued at a source awaiting injection or in fabric custody
			// (staging, wire, VoQ, receive side). A surplus is a leak; a
			// deficit is a double release or custody miscount.
			live, held, pending := t.Pool.Live(), t.Net.HeldPackets(), t.sourcesPending()
			if live != held+pending {
				report("conservation", fmt.Sprintf("pool live %d != fabric held %d + source pending %d (census %v)",
					live, held, pending, t.Net.Census()))
			}
			// Pool accounting: the host sink releases every delivered
			// packet and the fault layer releases every wire-dropped
			// one; those are the only two release sites, so releases
			// equal deliveries plus intentional drops (the drop
			// ledger's DroppedPackets).
			var rx uint64
			for lid := 0; lid < t.Net.NumHosts(); lid++ {
				rx += t.Net.HCA(ib.LID(lid)).Counters().RxPackets
			}
			dropped := uint64(t.Net.Audit().DroppedPackets)
			if puts := t.Pool.Stats().Puts; puts != rx+dropped {
				report("pool-accounting", fmt.Sprintf("pool puts %d != delivered %d + fault-dropped %d",
					puts, rx, dropped))
			}
		}
		t.Net.CheckState(func(rule string, err error) { report(rule, err.Error()) })
	}
	if t.CC != nil {
		if err := t.CC.CheckInvariants(); err != nil {
			report("cc-state", err.Error())
		}
	}
}

// watchdog detects lost forward progress: the fabric holds packets but
// no packet has entered or left it for WatchdogAfter of simulated time.
// Source-queued packets do not arm it — a fully throttled source is
// legal — but a packet stuck inside the fabric is not.
func (c *Checker) watchdog(now sim.Time) {
	if c.cfg.WatchdogAfter < 0 || c.t.Net == nil {
		return
	}
	var io uint64
	for lid := 0; lid < c.t.Net.NumHosts(); lid++ {
		ctr := c.t.Net.HCA(ib.LID(lid)).Counters()
		io += ctr.TxPackets + ctr.RxPackets
	}
	inFabric := c.t.Pool.Live() - c.t.sourcesPending()
	if io != c.lastIO || inFabric <= 0 {
		c.lastIO, c.lastIOTime = io, now
		c.tripped = false
		return
	}
	if c.tripped || now.Sub(c.lastIOTime) < c.cfg.WatchdogAfter {
		return
	}
	c.tripped = true
	c.violate(now, "watchdog", "no packet injected or delivered for %v with %d packets in fabric custody",
		now.Sub(c.lastIOTime), inFabric)
	if c.cfg.Diagnostics != nil {
		c.dump(c.cfg.Diagnostics)
	}
}

// dump writes a structured state snapshot for diagnosing a violation.
func (c *Checker) dump(w io.Writer) {
	simr := c.t.Sim
	fmt.Fprintf(w, "check: state at %v: %d events executed, %d pending\n",
		simr.Now(), simr.Processed(), simr.Pending())
	if c.t.Pool != nil {
		st := c.t.Pool.Stats()
		fmt.Fprintf(w, "check: pool gets=%d puts=%d live=%d free=%d\n",
			st.Gets, st.Puts, c.t.Pool.Live(), c.t.Pool.FreeLen())
	}
	if c.t.Net != nil {
		fmt.Fprintf(w, "check: fabric custody %v\n", c.t.Net.Census())
	}
	if c.t.SourcesPending != nil {
		fmt.Fprintf(w, "check: source pending %d\n", c.t.SourcesPending())
	}
	if c.t.CC != nil {
		flows, mean := c.t.CC.ThrottleSummary()
		fmt.Fprintf(w, "check: cc throttled flows=%d mean throttle=%.2f\n", flows, mean)
	}
	if c.reg != nil {
		marks, stalls, fwdPkts, fwdBytes := c.reg.Totals()
		fmt.Fprintf(w, "check: ports fecn=%d stalls=%d fwd=%d pkts %d bytes\n",
			marks, stalls, fwdPkts, fwdBytes)
		if k, pc := c.reg.HottestPort(); pc != nil {
			fmt.Fprintf(w, "check: hottest port %v: %d marks, peak queue %d bytes\n",
				k, pc.FECNMarks, pc.PeakQueuedBytes)
		}
	}
	if c.faultSeen > 0 {
		if c.t.Net != nil {
			aud := c.t.Net.Audit()
			fmt.Fprintf(w, "check: fault drops data=%d fecn=%d cnp=%d ack=%d credits=%d\n",
				aud.DroppedData, aud.DroppedFECN, aud.DroppedCNP, aud.DroppedAck, aud.DroppedCredits)
		}
		fmt.Fprintf(w, "check: last %d of %d fault events:\n", len(c.faultRing), c.faultSeen)
		for i := 0; i < len(c.faultRing); i++ {
			e := c.faultRing[(c.faultNext+i)%len(c.faultRing)]
			where := fmt.Sprintf("host%d", e.Node)
			if e.Switch {
				where = fmt.Sprintf("sw%d.p%d", e.Node, e.Port)
			}
			switch {
			case e.Kind != obs.KindPacketDropped:
				fmt.Fprintf(w, "check:   [%v] %s at %s\n", e.Time, e.Kind, where)
			case e.PktID > 0:
				fmt.Fprintf(w, "check:   [%v] dropped %s %d->%d (%d bytes) at %s\n",
					e.Time, e.Type, e.Src, e.Dst, e.Bytes, where)
			default:
				fmt.Fprintf(w, "check:   [%v] dropped credit update vl%d (%d bytes) at %s\n",
					e.Time, e.VL, e.CreditBytes, where)
			}
		}
	}
}
