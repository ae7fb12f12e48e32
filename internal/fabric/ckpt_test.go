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
// link until VoQs, staging buffers and the sink queue all hold packets,
// and exports that instant.
func congestedState(t *testing.T) (blob []byte, recs []ckpt.PacketRecord) {
	t.Helper()
	n := ckptNet(t)
	for src := 0; src < 3; src++ {
		n.HCA(ib.LID(src)).SetSource(&floodSource{src: ib.LID(src), dst: 3, remaining: -1})
	}
	n.Start()
	n.Sim().RunUntil(sim.Time(0).Add(30 * sim.Microsecond))
	if err := n.CheckVoQOccupancy(); err != nil {
		t.Fatal(err)
	}
	tab := ckpt.NewPacketTable()
	st := n.ExportState(tab)
	blob, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return blob, append([]ckpt.PacketRecord(nil), tab.Records()...)
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
	blob, recs := congestedState(t)

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
