package fabric

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/ib"
	"repro/internal/sim"
	"repro/internal/topo"
)

// ckptNet builds the restore-hardening fixture: a two-switch chain with
// three hosts each, so every switch has five ports padded to a ring of
// eight (in-ports 5–7 are padding), an unconnected in-port (sw0's
// "previous switch" port 3), and with three VLs a padding lane (vl 3).
func ckptNet(t *testing.T) *Network {
	t.Helper()
	tp, err := topo.LinearChain(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testCfg()
	cfg.NumVLs = 3
	return buildNet(t, tp, cfg, Hooks{})
}

// congestedState runs hosts 0–2 flooding host 3 across the inter-switch
// link (and host 4 sending to host 5 unhindered) until VoQs, staging buffers and the sink queue all hold packets
// — and, nudging on a nanosecond at a time, until a credit update is
// parked, a host is stalled and some link is busy behind an unarmed
// key — and exports that instant together with the kernel scalars the
// link keys are judged against.
func congestedState(t *testing.T) (blob []byte, recs []ckpt.PacketRecord, ks sim.KernelState) {
	t.Helper()
	n := ckptNet(t)
	for src := 0; src < 3; src++ {
		n.HCA(ib.LID(src)).SetSource(&floodSource{src: ib.LID(src), dst: 3, remaining: -1})
	}
	// An uncongested flow beside them: host 4's link outruns its
	// injection DMA, so its serializer is busy with nothing staged.
	n.HCA(4).SetSource(&floodSource{src: 4, dst: 5, remaining: -1})
	n.Start()
	var tab *ckpt.PacketTable
	var st *State
	for at := sim.Time(0).Add(30 * sim.Microsecond); ; at = at.Add(sim.Nanosecond) {
		if at > sim.Time(0).Add(60*sim.Microsecond) {
			t.Fatal("fixture never holds a parked credit, a stalled host and an unarmed busy link at once")
		}
		n.Sim().RunUntil(at)
		tab = ckpt.NewPacketTable()
		st = n.ExportState(tab)
		if len(st.Parked) > 0 && stalledHost(st) >= 0 && unarmedBusy(st) != nil {
			break
		}
	}
	if err := n.CheckVoQOccupancy(); err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return blob, append([]ckpt.PacketRecord(nil), tab.Records()...), n.Sim().ExportKernel()
}

// stalledHost returns a host whose transmitter is stalled, or -1.
func stalledHost(st *State) int {
	for i := range st.HCAs {
		if st.HCAs[i].Out.Stalled {
			return i
		}
	}
	return -1
}

// unarmedBusy returns a link busy behind a key that is not in the event
// list, or nil.
func unarmedBusy(st *State) *LinkOutState {
	for i := range st.HCAs {
		if l := &st.HCAs[i].Out; l.Busy && !l.Armed {
			return l
		}
	}
	for i := range st.Switches {
		for _, o := range st.Switches[i].Out {
			if o != nil && o.Link.Busy && !o.Link.Armed {
				return &o.Link
			}
		}
	}
	return nil
}

// busiestOut returns the switch output port state holding the most
// VoQs (sw0's port towards sw1 in the fixture).
func busiestOut(st *State) *SwOutState {
	var best *SwOutState
	for i := range st.Switches {
		for _, o := range st.Switches[i].Out {
			if o != nil && (best == nil || len(o.VoQs) > len(best.VoQs)) {
				best = o
			}
		}
	}
	return best
}

// TestRestoreStateRejectsCorruptSnapshots hand-corrupts a valid fabric
// state one field at a time — the damage a CRC-valid but wrongly written
// (or maliciously edited) checkpoint can carry — and requires Restore to
// answer each with an error instead of a panic at the first grant or a
// silently inconsistent fabric.
func TestRestoreStateRejectsCorruptSnapshots(t *testing.T) {
	blob, recs, ks := congestedState(t)

	var probe State
	if err := json.Unmarshal(blob, &probe); err != nil {
		t.Fatal(err)
	}
	bo := busiestOut(&probe)
	if bo == nil || len(bo.VoQs) < 2 || len(bo.VoQs[0].Pkts) < 2 {
		t.Fatalf("fixture not congested enough: busiest port %+v", bo)
	}
	if len(probe.HCAs[0].Obuf) == 0 || len(probe.HCAs[3].RxQ) == 0 {
		t.Fatalf("fixture lacks staged (%d) or rx-queued (%d) packets", len(probe.HCAs[0].Obuf), len(probe.HCAs[3].RxQ))
	}

	cases := []struct {
		name    string
		corrupt func(st *State, recs []ckpt.PacketRecord)
		want    string // substring of the error; "" means restore must succeed
	}{
		{"intact", func(*State, []ckpt.PacketRecord) {}, ""},
		{"voq index negative", func(st *State, _ []ckpt.PacketRecord) { busiestOut(st).VoQs[0].K = -1 }, "voq -1"},
		{"voq index beyond ring", func(st *State, _ []ckpt.PacketRecord) {
			v := busiestOut(st).VoQs
			v[len(v)-1].K = 32
		}, "voq 32 of 32"},
		{"voq in padding in-port", func(st *State, _ []ckpt.PacketRecord) {
			v := busiestOut(st).VoQs
			v[len(v)-1].K = 7 << 2
		}, "padding slot"},
		{"voq at unconnected in-port", func(st *State, _ []ckpt.PacketRecord) {
			// Switch 0's port 3 faces a previous switch that does not exist.
			o := st.Switches[0].Out[4]
			o.VoQs[len(o.VoQs)-1].K = 3 << 2
		}, "padding slot"},
		{"voq on padding lane", func(st *State, _ []ckpt.PacketRecord) { busiestOut(st).VoQs[0].K |= 3 }, "padding slot"},
		{"voq listed twice", func(st *State, _ []ckpt.PacketRecord) {
			v := busiestOut(st).VoQs
			v[1].K = v[0].K
		}, "out of ring order"},
		{"arbiter pointer beyond ring", func(st *State, _ []ckpt.PacketRecord) { busiestOut(st).RR = 32 }, "arbiter pointer 32"},
		{"arbiter pointer negative", func(st *State, _ []ckpt.PacketRecord) { busiestOut(st).RR = -1 }, "arbiter pointer -1"},
		{"pending disagrees with queues", func(st *State, _ []ckpt.PacketRecord) { busiestOut(st).Pending++ }, "pending"},
		// RR and Pending are int in the snapshot and int32 in the port:
		// a value that is the true one plus 2^32 must be refused before
		// it is narrowed, not wrapped back into a state the rules accept.
		{"pending off by 2^32", func(st *State, _ []ckpt.PacketRecord) { busiestOut(st).Pending += 1 << 32 }, "outside [0, 2147483647]"},
		{"pending negative", func(st *State, _ []ckpt.PacketRecord) { busiestOut(st).Pending -= 1 << 32 }, "outside [0, 2147483647]"},
		{"arbiter pointer off by 2^32", func(st *State, _ []ckpt.PacketRecord) { busiestOut(st).RR += 1 << 32 }, "outside ring of 32"},
		{"qbytes disagrees with queues", func(st *State, _ []ckpt.PacketRecord) { busiestOut(st).Qbytes[0] -= 64 }, "wire bytes"},
		{"staging bytes disagree with queue", func(st *State, _ []ckpt.PacketRecord) { st.HCAs[0].ObufBytes++ }, "staging holds"},
		{"voq packet reference beyond table", func(st *State, recs []ckpt.PacketRecord) {
			busiestOut(st).VoQs[0].Pkts[0] = len(recs) + 1
		}, "packet reference"},
		{"staged packet reference negative", func(st *State, _ []ckpt.PacketRecord) { st.HCAs[0].Obuf[0] = -4 }, "packet reference"},
		{"in-service packet reference beyond table", func(st *State, recs []ckpt.PacketRecord) {
			st.HCAs[3].SinkPkt = len(recs) + 7
		}, "packet reference"},
		{"nil packet inside a queue", func(st *State, _ []ckpt.PacketRecord) { busiestOut(st).VoQs[0].Pkts[1] = 0 }, "nil packet"},
		{"packet in two voqs", func(st *State, _ []ckpt.PacketRecord) {
			v := busiestOut(st).VoQs
			v[1].Pkts[0] = v[0].Pkts[0]
		}, "two custody sites"},
		{"packet in a staging buffer and a sink queue", func(st *State, _ []ckpt.PacketRecord) {
			st.HCAs[3].RxQ[0] = st.HCAs[0].Obuf[0]
		}, "two custody sites"},
		{"queued packet on another lane than its voq", func(st *State, recs []ckpt.PacketRecord) {
			recs[busiestOut(st).VoQs[0].Pkts[0]-1].VL = 1
		}, "holds a packet on vl 1"},
		{"staged packet on a lane the fabric lacks", func(st *State, recs []ckpt.PacketRecord) {
			recs[st.HCAs[0].Obuf[0]-1].VL = 9
		}, "vl 9 of 3"},

		// The on-demand event bookkeeping (LinkOutState busy-until /
		// tx-seq / armed / stalled, State.Parked).
		{"done event armed on an idle serializer", func(st *State, _ []ckpt.PacketRecord) {
			l := unarmedBusy(st)
			l.Busy, l.Armed = false, true
		}, "event armed while idle"},
		{"unarmed busy key behind the clock", func(st *State, _ []ckpt.PacketRecord) {
			unarmedBusy(st).BusyUntil = ks.Now - 1
		}, "the snapshot clock has passed"},
		{"serializer-done seq never issued", func(st *State, _ []ckpt.PacketRecord) {
			unarmedBusy(st).TxSeq = ks.Seq
		}, "at or beyond next seq"},
		{"packets waiting behind an unarmed serializer", func(st *State, _ []ckpt.PacketRecord) {
			bo := busiestOut(st)
			bo.Link.Busy, bo.Link.Armed, bo.Link.Stalled = true, false, false
			bo.Link.BusyUntil, bo.Link.TxSeq = ks.Now+1000, 1
		}, "packets waiting and no serializer-done event"},
		{"stall flag lost", func(st *State, _ []ckpt.PacketRecord) {
			st.HCAs[stalledHost(st)].Out.Stalled = false
		}, "not marked stalled"},
		{"stalled while busy", func(st *State, _ []ckpt.PacketRecord) { unarmedBusy(st).Stalled = true }, "marked stalled with waiting=false busy=true"},
		{"parked credit on a lane the fabric lacks", func(st *State, _ []ckpt.PacketRecord) { st.Parked[0].VL = 3 }, "on vl 3 of 3"},
		{"parked credit seq never issued", func(st *State, _ []ckpt.PacketRecord) {
			st.Parked[len(st.Parked)-1].Seq = ks.Seq
		}, "at or beyond next seq"},
		{"parked credit already landed", func(st *State, _ []ckpt.PacketRecord) { st.Parked[0].At = ks.Now - 1 }, "behind the snapshot clock"},
		{"parked credits out of key order", func(st *State, _ []ckpt.PacketRecord) {
			st.Parked = append(st.Parked, st.Parked[0])
		}, "keys out of order"},
		{"parked credit for a stalled transmitter", func(st *State, _ []ckpt.PacketRecord) {
			st.Parked[0].AtSwitch, st.Parked[0].Node, st.Parked[0].Port = false, stalledHost(st), 0
		}, "credit updates parked"},
		{"parked credit for a transmitter the fabric lacks", func(st *State, _ []ckpt.PacketRecord) {
			st.Parked[0].AtSwitch, st.Parked[0].Node, st.Parked[0].Port = true, 0, 3
		}, "unconnected port 3 of switch 0"},
		{"parked credit larger than the buffer", func(st *State, _ []ckpt.PacketRecord) { st.Parked[0].Bytes = 1 << 20 }, "exceed capacity"},
		{"parked credit overflowing the buffer", func(st *State, _ []ckpt.PacketRecord) {
			c := &st.Parked[0]
			l := &st.HCAs[c.Node].Out
			if c.AtSwitch {
				l = &st.Switches[c.Node].Out[c.Port].Link
			}
			l.Credits[c.VL] = 16<<10 - c.Bytes + 1
		}, "exceed capacity"},
		{"more parked credits than the ring holds", func(st *State, _ []ckpt.PacketRecord) {
			for len(st.Parked) <= parkedCap {
				st.Parked = append(st.Parked, st.Parked[0])
			}
		}, "the ring holds"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var st State
			if err := json.Unmarshal(blob, &st); err != nil {
				t.Fatal(err)
			}
			rc := append([]ckpt.PacketRecord(nil), recs...)
			tc.corrupt(&st, rc)
			n := ckptNet(t)
			n.Sim().BeginRestore(ks)
			err := n.RestoreState(&st, ckpt.RestoreTable(rc))
			if tc.want == "" {
				if err != nil {
					t.Fatalf("restore of an intact state failed: %v", err)
				}
				if err := n.CheckVoQOccupancy(); err != nil {
					t.Fatalf("occupancy bitmap not rebuilt: %v", err)
				}
				tab := ckpt.NewPacketTable()
				again, _ := json.Marshal(n.ExportState(tab))
				if string(again) != string(blob) {
					t.Fatal("restored fabric does not re-export the state it was given")
				}
				return
			}
			if err == nil {
				t.Fatal("corrupt state restored without error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
