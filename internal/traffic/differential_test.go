package traffic

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/ib"
	"repro/internal/sim"
)

// stubThrottle answers IRD from its own RNG: nothing for half the
// packets, up to 200 µs for the rest. The generator under test and the
// reference each get one from the same seed, so they see the same
// delays for as long as they ask the same questions.
type stubThrottle struct{ rng *sim.RNG }

func (s *stubThrottle) IRD(_, _ ib.LID, _ int) sim.Duration {
	if s.rng.Intn(2) == 0 {
		return 0
	}
	return sim.Duration(s.rng.Intn(int(200 * sim.Microsecond)))
}

// diffCase is one randomized configuration, buildable any number of
// times with identical RNG and throttle streams.
type diffCase struct {
	cfg      NodeConfig
	seed     uint64
	throttle bool
}

func (c diffCase) build() NodeConfig {
	cfg := c.cfg
	cfg.RNG = sim.NewRNG(c.seed)
	if c.throttle {
		cfg.Throttle = &stubThrottle{rng: sim.NewRNG(c.seed + 1)}
	}
	return cfg
}

func (c diffCase) String() string {
	return fmt.Sprintf("seed=%d lid=%d/%d p=%d hot=%v sl=%v hvl=%d cap=%d msg=%d thr=%v",
		c.seed, c.cfg.LID, c.cfg.NumNodes, c.cfg.PPercent, c.cfg.Hotspot, c.cfg.SLThrottle,
		c.cfg.HotspotVL, c.cfg.BacklogCap, c.cfg.MsgBytes, c.throttle)
}

func randomDiffCase(r *sim.RNG, seed uint64) diffCase {
	n := 2 + r.Intn(40)
	if r.Intn(8) == 0 {
		n = 648
	}
	lid := ib.LID(r.Intn(n))
	cfg := NodeConfig{
		LID:           lid,
		NumNodes:      n,
		PPercent:      []int{0, 30, 50, 100}[r.Intn(4)],
		InjectionRate: ib.DefaultInjectionRate(),
		MsgBytes:      []int{1, ib.MTU, ib.MTU + 1, 2 * ib.MTU, 3 * ib.MTU}[r.Intn(5)],
		BacklogCap:    1 + r.Intn(8),
		SLThrottle:    r.Intn(3) == 0,
		HotspotVL:     ib.VL(r.Intn(2)),
	}
	switch r.Intn(4) {
	case 0:
		cfg.Hotspot = StaticTarget(lid) // self-targeting: the stream idles forever
	case 1:
		cfg.Hotspot = StaticTarget(r.Intn(n))
	default:
		// Random sequences hit the node itself now and then.
		lifetime := sim.Duration(20+r.Intn(400)) * sim.Microsecond
		cfg.Hotspot = NewMovingTarget(lifetime, 1+r.Intn(6), n, r)
	}
	return diffCase{cfg: cfg, seed: seed, throttle: r.Intn(3) != 0}
}

// activeCounts returns how often each destination is on the active
// list, checking on the way that every slot's refcount says the same.
func activeCounts(t *testing.T, g *Generator) map[ib.LID]int {
	t.Helper()
	perSlot := make([]int32, len(g.slots))
	counts := map[ib.LID]int{}
	for _, idx := range g.active {
		perSlot[idx]++
		counts[g.dsts[idx]]++
	}
	for i := range g.slots {
		if g.slots[i].refs != perSlot[i] {
			t.Fatalf("slot %d (dst %d): refs = %d, listed %d times", i, g.dsts[i], g.slots[i].refs, perSlot[i])
		}
	}
	return counts
}

func refActiveCounts(g *refGenerator) map[ib.LID]int {
	counts := map[ib.LID]int{}
	for _, fl := range g.active {
		counts[fl.dst]++
	}
	return counts
}

// runDifferential drives the generator and the reference through the
// same random Pull schedule and fails on the first difference. It
// returns the highest multiplicity any one flow reached on the active
// list.
func runDifferential(t *testing.T, c diffCase, steps int) (maxListed int) {
	t.Helper()
	g := mustGen(t, c.build())
	ref := newRefGenerator(mustGen(t, c.build()).cfg)
	sched := sim.NewRNG(c.seed + 2)
	linkTx := ib.DefaultLinkRate().TxTime(ib.MTU + ib.HeaderBytes)
	now := sim.Time(0)
	for step := 0; step < steps; step++ {
		p, wake := g.Pull(now)
		rp, rwake := ref.Pull(now)
		if (p == nil) != (rp == nil) || wake != rwake || (p != nil && *p != *rp) {
			t.Fatalf("%v: step %d t=%v: got (%v, %v), reference (%v, %v)", c, step, now, p, wake, rp, rwake)
		}
		if g.PendingPackets() != ref.PendingPackets() {
			t.Fatalf("%v: step %d: pending %d, reference %d", c, step, g.PendingPackets(), ref.PendingPackets())
		}
		gh, gu := g.GeneratedBytes()
		rh, ru := ref.GeneratedBytes()
		if gh != rh || gu != ru {
			t.Fatalf("%v: step %d: generated (%d, %d), reference (%d, %d)", c, step, gh, gu, rh, ru)
		}
		if step%16 == 0 {
			got, want := activeCounts(t, g), refActiveCounts(ref)
			if len(got) != len(want) {
				t.Fatalf("%v: step %d: active list %v, reference %v", c, step, got, want)
			}
			for dst, n := range want {
				if got[dst] != n {
					t.Fatalf("%v: step %d: active list %v, reference %v", c, step, got, want)
				}
				maxListed = max(maxListed, n)
			}
		}

		// Stop and resume: from the generator's own export, or from the
		// reference's — the old blob, which also lists every flow ever
		// sent to.
		if k := sched.Intn(400); k < 2 {
			tab := ckpt.NewPacketTable()
			blob, err := g.ExportState(tab)
			if k == 1 {
				blob, err = ref.ExportState(tab)
			}
			if err != nil {
				t.Fatal(err)
			}
			g = mustGen(t, c.build())
			if err := g.RestoreState(blob, ckpt.RestoreTable(tab.Records())); err != nil {
				t.Fatalf("%v: step %d: restore: %v", c, step, err)
			}
			if k == 0 {
				// What was exported is all there is: the restored
				// generator, slots reassigned, exports the same bytes.
				again, err := g.ExportState(ckpt.NewPacketTable())
				if err != nil || !bytes.Equal(again, blob) {
					t.Fatalf("%v: step %d: re-export differs (%v):\n%s\n%s", c, step, err, blob, again)
				}
			}
			if c.throttle {
				// The throttle is the CC manager's state, not the generator's.
				g.cfg.Throttle.(*stubThrottle).rng.SetState(ref.cfg.Throttle.(*stubThrottle).rng.State())
			}
		}

		switch {
		case p != nil && sched.Intn(10) == 0:
			// Back-pressure: the fabric takes its time to ask again.
			now = now.Add(linkTx + sim.Duration(sched.Intn(int(300*sim.Microsecond))))
		case p != nil:
			now = now.Add(linkTx)
		case wake == sim.MaxTime || sched.Intn(5) == 0:
			// Nothing will ever wake it (or the fabric asks unprompted).
			now = now.Add(sim.Duration(1 + sched.Intn(int(50*sim.Microsecond))))
		default:
			now = wake
		}
	}
	return maxListed
}

// TestDifferentialAgainstReference holds the slot-based generator to the
// table-based one it replaced: over random configurations and random
// Pull schedules both must hand out the same packets, ask for the same
// wake-ups and account the same backlog, across export → restore →
// continue from either one's snapshot.
func TestDifferentialAgainstReference(t *testing.T) {
	cases, steps := 300, 4000
	if testing.Short() {
		cases = 40
	}
	r := sim.NewRNG(20120521)
	for i := 0; i < cases; i++ {
		runDifferential(t, randomDiffCase(r, uint64(i)), steps)
	}
}

// TestDifferentialPinsRepeatedActiveEntries pins the model artefact that
// makes the refcount necessary: generate lists a flow whenever its
// queue is empty, even if a drained entry of it is still listed, so a
// hotspot flow sits on the active list several times over and is served
// that many times per round. The reference does it; so must the slots.
func TestDifferentialPinsRepeatedActiveEntries(t *testing.T) {
	c := diffCase{cfg: baseCfg(50), seed: 7}
	c.cfg.NumNodes = 648
	if got := runDifferential(t, c, 20000); got < 3 {
		t.Fatalf("a flow was listed at most %d times; the quirk this test pins is gone from the reference", got)
	}
}
