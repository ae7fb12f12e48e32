package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/fabric"
	"repro/internal/ib"
	"repro/internal/obs"
	"repro/internal/sim"
)

// The acceptance oracle of checkpoint/restore: run a scenario straight
// through with the trajectory digest attached, then run it again but
// "crash" mid-flight — checkpoint, discard the instance, restore from
// the bytes — and compare complete KernelSignatures. Byte-identical
// digests over the full event stream mean the continuation is
// indistinguishable from never having stopped.

func ckptSig(dig *obs.Digest, res *Result) KernelSignature {
	return KernelSignature{
		Digest:          dig.Sum(),
		Records:         dig.Records(),
		Events:          res.Events,
		HotGbps:         res.Summary.HotspotAvgGbps,
		NonHotGbps:      res.Summary.NonHotspotAvgGbps,
		AllGbps:         res.Summary.AllAvgGbps,
		TotalGbps:       res.Summary.TotalGbps,
		FECNMarked:      res.CCStats.FECNMarked,
		BECNReceived:    res.CCStats.BECNReceived,
		CNPSent:         res.CCStats.CNPSent,
		ACKSent:         res.CCStats.ACKSent,
		TimerDecrements: res.CCStats.TimerDecrements,
		MaxCCTI:         res.CCStats.MaxCCTI,
	}
}

// straightSig runs s to completion with a digest attached.
func straightSig(t *testing.T, s Scenario) KernelSignature {
	t.Helper()
	in, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	dig := in.AttachDigest()
	res := in.Execute()
	return ckptSig(dig, res)
}

// lazyStateAt counts, in a snapshot, the transmitters busy behind a
// serializer-done key that is not in the event list and the credit
// updates parked instead of scheduled — the state that exists only
// because those events are created on demand.
func lazyStateAt(t *testing.T, snap *ckpt.Snapshot) (unarmedBusy, parked int) {
	t.Helper()
	var st fabric.State
	if err := json.Unmarshal(snap.Fabric, &st); err != nil {
		t.Fatal(err)
	}
	count := func(l *fabric.LinkOutState) {
		if l.Busy && !l.Armed {
			unarmedBusy++
		}
	}
	for i := range st.HCAs {
		count(&st.HCAs[i].Out)
	}
	for i := range st.Switches {
		for _, o := range st.Switches[i].Out {
			if o != nil {
				count(&o.Link)
			}
		}
	}
	return unarmedBusy, len(st.Parked)
}

// resumedSig runs s until cut, checkpoints, abandons the instance, and
// finishes the run on the restored copy. The cut is nudged forward, a
// nanosecond at a time, to an instant at which a link is busy behind an
// unarmed key and a credit update is parked, so the round trip cannot
// pass without carrying that state.
func resumedSig(t *testing.T, s Scenario, cut sim.Time) KernelSignature {
	t.Helper()
	in, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	in.AttachDigest()
	in.executed = true
	in.start()
	for tries := 0; ; tries++ {
		in.Net.Sim().RunUntil(cut)
		snap, err := in.Snapshot()
		if err != nil {
			t.Fatalf("snapshot at %v: %v", cut, err)
		}
		if busy, parked := lazyStateAt(t, snap); busy > 0 && parked > 0 {
			break
		}
		if tries == 20_000 {
			t.Fatalf("%s: no instant within 20 µs of the cut with an unarmed busy link and a parked credit", s.Name)
		}
		cut = cut.Add(sim.Nanosecond)
	}
	var buf bytes.Buffer
	if err := in.Checkpoint(&buf); err != nil {
		t.Fatalf("checkpoint at %v: %v", cut, err)
	}
	re, err := Restore(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if !re.restored {
		t.Fatal("restored instance not marked restored")
	}
	if re.dig == nil {
		t.Fatal("restored instance lost the trajectory digest")
	}
	res := re.Execute()
	return ckptSig(re.dig, res)
}

func requireIdentical(t *testing.T, name string, straight, resumed KernelSignature) {
	t.Helper()
	if straight.Records == 0 {
		t.Fatalf("%s: empty event stream; the digest comparison would prove nothing", name)
	}
	if straight != resumed {
		d := &DiffReport{Wheel: straight, Ref: resumed}
		t.Errorf("%s: continuation diverges from uninterrupted run:\n  %s",
			name, strings.Join(d.Mismatches(), "\n  "))
	}
}

// TestCheckpointRestoreContinuation covers the Table II corpus at radix
// 8 (CC on/off, hotspots on/off, silent C nodes) with cuts both before
// and after the warmup boundary, so both a pending and a fired metrics
// snapshot round-trip.
func TestCheckpointRestoreContinuation(t *testing.T) {
	if testing.Short() {
		t.Skip("checkpoint corpus is not short")
	}
	base := faultBase(1)
	cuts := []sim.Time{
		sim.Time(0).Add(100 * sim.Microsecond), // inside warmup
		sim.Time(0).Add(350 * sim.Microsecond), // inside measurement
	}
	for _, s := range TableIIScenarios(base) {
		straight := straightSig(t, s)
		for _, cut := range cuts {
			requireIdentical(t, s.Name, straight, resumedSig(t, s, cut))
		}
	}
}

// TestCheckpointRestoreVariants covers the model features whose state
// lives outside the Table II defaults: moving hotspots, SL-level
// throttling, the separate hotspot VL, and windy B nodes.
func TestCheckpointRestoreVariants(t *testing.T) {
	if testing.Short() {
		t.Skip("checkpoint variants are not short")
	}
	cut := sim.Time(0).Add(350 * sim.Microsecond)

	moving := faultBase(2)
	moving.Name = "ckpt moving hotspots"
	moving.HotspotLifetime = 150 * sim.Microsecond

	sl := faultBase(3)
	sl.Name = "ckpt SL-level throttling"
	sl.CC.SLLevel = true

	vl := faultBase(4)
	vl.Name = "ckpt separate hotspot VL"
	vl.SeparateHotspotVL = true

	windy := faultBase(6)
	windy.Name = "ckpt windy B=25% p=60"
	windy.FracBPct = 25
	windy.PPercent = 60

	for _, s := range []Scenario{moving, sl, vl, windy} {
		requireIdentical(t, s.Name, straightSig(t, s), resumedSig(t, s, cut))
	}
}

// TestCheckpointRestoreFaulted cuts through the middle of an active
// fault plan, so overlapping link-down depths, in-flight degrade
// factors, pending transition events, the sample cursor and all five
// drop-RNG stream positions must survive the round trip.
func TestCheckpointRestoreFaulted(t *testing.T) {
	if testing.Short() {
		t.Skip("faulted checkpoint runs are not short")
	}
	s := faultBase(7)
	s.Faults = synthFor(t, &s, 77, 0.7)
	s.Name = "ckpt faulted"
	straight := straightSig(t, s)
	for _, cut := range []sim.Time{
		sim.Time(0).Add(150 * sim.Microsecond),
		sim.Time(0).Add(300 * sim.Microsecond),
		sim.Time(0).Add(450 * sim.Microsecond),
	} {
		requireIdentical(t, s.Name, straight, resumedSig(t, s, cut))
	}
}

// TestExecuteWithCheckpoints: the cadence-stepped run produces the same
// result as a plain one, writes a bounded rolling series, and resuming
// from the newest file on disk completes to the identical signature.
func TestExecuteWithCheckpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("cadence checkpoint run is not short")
	}
	s := faultBase(8)
	s.Name = "ckpt cadence"
	straight := straightSig(t, s)

	dir := t.TempDir()
	in, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	in.AttachDigest()
	var saves int
	res, err := in.ExecuteWithCheckpoints(CkptOpts{
		Every: 100 * sim.Microsecond,
		Dir:   dir,
		Keep:  2,
		OnSave: func(path string, at sim.Time) {
			saves++
			if filepath.Dir(path) != dir {
				t.Errorf("checkpoint outside dir: %s", path)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "cadence run", straight, ckptSig(in.dig, res))
	// 600µs window at 100µs cadence: boundaries 100..500 (600 == end is
	// not checkpointed).
	if saves != 5 {
		t.Errorf("wrote %d checkpoints, want 5", saves)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 {
		t.Errorf("rolling series kept %d files, want 2", len(ents))
	}

	// Resume from the newest on-disk checkpoint (t=500µs) and finish.
	re, err := RestoreFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "resume from disk", straight, ckptSig(re.dig, re.Execute()))
}

// txDoneEvent returns the index of a pending serializer-done event in
// the snapshot, or -1.
func txDoneEvent(snap *ckpt.Snapshot) int {
	for i, e := range snap.Events {
		if e.Kind == "swTx" || e.Kind == "hcaTx" {
			return i
		}
	}
	return -1
}

// TestRestoreRejectsCorruptCRCValidCheckpoint: the envelope CRC vouches
// for the bytes, not for what wrote them. A checkpoint edited before
// sealing must fail Restore with an error. Before the hardening a VoQ
// moved past the switch's ports in the arbiter ring restored cleanly and
// panicked at the port's next grant, an arbiter pointer off the ring was
// silently masked onto it, and a packet claimed by a generator queue and
// a VoQ at once sat in two places.
func TestRestoreRejectsCorruptCRCValidCheckpoint(t *testing.T) {
	s := Default(6) // six-port switches, one lane: a ring of 6 slots
	s.Seed = 9
	s.CCOn = false // unthrottled hotspots keep VoQs occupied at the cut
	s.Warmup = 200 * sim.Microsecond
	s.Measure = 400 * sim.Microsecond
	in, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	in.executed = true
	in.start()
	// Cut where the on-demand event bookkeeping is all in play: a link
	// busy behind an unarmed key, a credit update parked, and a
	// serializer-done event armed.
	var good *ckpt.Snapshot
	for cut := sim.Time(0).Add(300 * sim.Microsecond); ; cut = cut.Add(sim.Nanosecond) {
		in.Net.Sim().RunUntil(cut)
		if good, err = in.Snapshot(); err != nil {
			t.Fatal(err)
		}
		busy, parked := lazyStateAt(t, good)
		if busy > 0 && parked > 0 && txDoneEvent(good) >= 0 {
			break
		}
		if cut > sim.Time(0).Add(320*sim.Microsecond) {
			t.Fatal("no cut with an unarmed busy link, a parked credit and an armed serializer")
		}
	}

	// firstVoQ finds a switch output port with a queued packet.
	firstVoQ := func(t *testing.T, st *fabric.State) *fabric.SwOutState {
		for i := range st.Switches {
			for _, o := range st.Switches[i].Out {
				if o != nil && len(o.VoQs) > 0 {
					return o
				}
			}
		}
		t.Fatal("no packet queued at any switch at the cut")
		return nil
	}
	// eachLink visits every transmitter's state.
	eachLink := func(st *fabric.State, f func(l *fabric.LinkOutState) (stop bool)) {
		for i := range st.HCAs {
			if f(&st.HCAs[i].Out) {
				return
			}
		}
		for i := range st.Switches {
			for _, o := range st.Switches[i].Out {
				if o != nil && f(&o.Link) {
					return
				}
			}
		}
	}
	cases := map[string]func(t *testing.T, snap *ckpt.Snapshot, st *fabric.State){
		// Armed says the serializer-done event is pending; without it the
		// link would stay busy forever.
		"armed serializer without its event": func(t *testing.T, snap *ckpt.Snapshot, _ *fabric.State) {
			i := txDoneEvent(snap)
			snap.Events = append(append([]ckpt.EventRecord(nil), snap.Events[:i]...), snap.Events[i+1:]...)
		},
		// And the other way round: the event would complete a
		// transmission the link state knows nothing about.
		"serializer-done event for an unarmed link": func(t *testing.T, _ *ckpt.Snapshot, st *fabric.State) {
			eachLink(st, func(l *fabric.LinkOutState) bool {
				if l.Armed {
					l.Armed = false
				}
				return false
			})
		},
		"serializer-done event under another key": func(t *testing.T, _ *ckpt.Snapshot, st *fabric.State) {
			eachLink(st, func(l *fabric.LinkOutState) bool {
				if l.Armed {
					l.TxSeq--
				}
				return l.Armed
			})
		},
		"unarmed busy link whose key has passed": func(t *testing.T, snap *ckpt.Snapshot, st *fabric.State) {
			eachLink(st, func(l *fabric.LinkOutState) bool {
				if l.Busy && !l.Armed {
					l.BusyUntil = snap.Kernel.Now
					return true
				}
				return false
			})
		},
		"parked credit with a seq the kernel never issued": func(t *testing.T, snap *ckpt.Snapshot, st *fabric.State) {
			st.Parked[len(st.Parked)-1].Seq = snap.Kernel.Seq
		},
		"parked credit on a lane the fabric lacks": func(t *testing.T, _ *ckpt.Snapshot, st *fabric.State) {
			st.Parked[0].VL = 1
		},
		"kernel position beyond the next seq": func(t *testing.T, snap *ckpt.Snapshot, _ *fabric.State) {
			snap.Kernel.ExecSeq = snap.Kernel.Seq + 1
		},
		"voq beyond the ring": func(t *testing.T, _ *ckpt.Snapshot, st *fabric.State) {
			o := firstVoQ(t, st)
			o.VoQs[len(o.VoQs)-1].K = 6
		},
		"arbiter pointer off the ring": func(t *testing.T, _ *ckpt.Snapshot, st *fabric.State) { firstVoQ(t, st).RR = 1 << 20 },
		"packet owned twice": func(t *testing.T, snap *ckpt.Snapshot, st *fabric.State) {
			ref := firstVoQ(t, st).VoQs[0].Pkts[0]
			for i, blob := range snap.Traffic {
				var g map[string]json.RawMessage
				if json.Unmarshal(blob, &g) != nil || g["flows"] == nil {
					continue
				}
				var flows []map[string]json.RawMessage
				if err := json.Unmarshal(g["flows"], &flows); err != nil {
					t.Fatal(err)
				}
				for _, fl := range flows {
					if fl["pkts"] != nil {
						fl["pkts"] = json.RawMessage(fmt.Sprintf("[%d]", ref))
						g["flows"], _ = json.Marshal(flows)
						snap.Traffic[i], _ = json.Marshal(g)
						return
					}
				}
			}
			t.Fatal("no generator holds a queued packet at the cut")
		},
		// The two a restore that only validated its own overlay let
		// through: every counter beside the shortened queue agrees with
		// it, and the pool's books are not fabric state at all — but the
		// run continued on another trajectory, or with a leak the first
		// checked sweep would report. The sweep's conservation law sees
		// both on sight.
		"queued packet removed with its counters adjusted": func(t *testing.T, snap *ckpt.Snapshot, st *fabric.State) {
			o := firstVoQ(t, st)
			q := &o.VoQs[0]
			lost := snap.Pkts[q.Pkts[len(q.Pkts)-1]-1]
			wire := (&ib.Packet{Type: ib.PacketType(lost.Type), PayloadBytes: lost.PayloadBytes}).WireBytes()
			if q.Pkts = q.Pkts[:len(q.Pkts)-1]; len(q.Pkts) == 0 {
				o.VoQs = o.VoQs[1:]
			}
			o.Pending--
			o.Qbytes[lost.VL] -= wire
		},
		"pool gets off by one": func(t *testing.T, _ *ckpt.Snapshot, st *fabric.State) { st.Pool.Gets++ },
		// A checkpoint of a backend the registry no longer holds.
		"scenario naming a removed backend": func(t *testing.T, snap *ckpt.Snapshot, _ *fabric.State) {
			var sc map[string]json.RawMessage
			if err := json.Unmarshal(snap.Scenario, &sc); err != nil {
				t.Fatal(err)
			}
			sc["CCOn"], sc["Backend"] = json.RawMessage(`true`), json.RawMessage(`"rcm"`)
			snap.Scenario, _ = json.Marshal(sc)
			snap.Backend, snap.CC = "rcm", json.RawMessage(`{}`)
		},
	}
	// Cases whose error must say what is wrong, not just fail.
	wantErr := map[string]string{
		"scenario naming a removed backend": `unknown cc backend "rcm" (registered: [ibcc nocc oracle])`,
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			snap := *good
			snap.Traffic = append([]json.RawMessage(nil), good.Traffic...)
			var st fabric.State
			if err := json.Unmarshal(good.Fabric, &st); err != nil {
				t.Fatal(err)
			}
			corrupt(t, &snap, &st)
			if snap.Fabric, err = json.Marshal(&st); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := ckpt.Encode(&buf, &snap); err != nil {
				t.Fatalf("sealing the corrupt snapshot: %v", err)
			}
			_, err := Restore(&buf)
			if err == nil {
				t.Fatal("corrupt checkpoint restored without error")
			}
			if want := wantErr[name]; !strings.Contains(err.Error(), want) {
				t.Fatalf("restore error %q does not say %q", err, want)
			}
		})
	}
}
