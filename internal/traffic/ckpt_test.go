package traffic

import (
	"encoding/json"
	"sort"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/ib"
	"repro/internal/sim"
)

// restoreCfg is the node every restore test rebuilds: two streams, so
// flowCap = 8 messages × 2 packets × 2 streams = 32.
func restoreCfg() NodeConfig {
	cfg := baseCfg(50)
	cfg.LID = 3
	return cfg
}

// realExport returns the snapshot of a generator first asked for packets
// late, so both streams' full backlogs are queued, ordered so that the
// first two flows hold packets.
func realExport(t testing.TB) (genState, []ckpt.PacketRecord) {
	t.Helper()
	g, err := NewGenerator(restoreCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		g.Pull(sim.Time(300 * sim.Microsecond))
	}
	tab := ckpt.NewPacketTable()
	blob, err := g.ExportState(tab)
	if err != nil {
		t.Fatal(err)
	}
	var st genState
	if err := json.Unmarshal(blob, &st); err != nil {
		t.Fatal(err)
	}
	sort.SliceStable(st.Flows, func(i, j int) bool { return len(st.Flows[i].Pkts) > len(st.Flows[j].Pkts) })
	if len(st.Flows) < 2 || len(st.Active) < 2 || len(st.Flows[1].Pkts) == 0 || tab.Len() != g.PendingPackets() {
		t.Fatalf("export too thin to mutate: %s", blob)
	}
	return st, tab.Records()
}

// hostileStates returns the real export (first) and one mutation of it
// per way a blob can lie, each with the field its error must name.
func hostileStates(t testing.TB) (recs []ckpt.PacketRecord, blobs [][]byte, fields []string) {
	t.Helper()
	add := func(field string, mut func(*genState)) {
		var st genState
		st, recs = realExport(t)
		mut(&st)
		blob, err := json.Marshal(&st)
		if err != nil {
			t.Fatal(err)
		}
		blobs, fields = append(blobs, blob), append(fields, field)
	}
	add("", func(*genState) {})
	add("rr", func(st *genState) { st.RR = -3 })
	add("rr", func(st *genState) { st.RR = len(st.Active) })
	add("rr", func(st *genState) { st.Active, st.RR = nil, 1 })
	add("listed twice", func(st *genState) { st.Flows = append(st.Flows, flowState{Dst: st.Flows[0].Dst}) })
	add("dst", func(st *genState) { st.Flows[0].Dst = -1 })
	add("dst", func(st *genState) { st.Flows[0].Dst = 16 })
	add("dst", func(st *genState) { st.Flows[0].Dst = 3 }) // the node itself
	add("backlog", func(st *genState) { st.Streams[0].Backlog = -1 })
	add("backlog", func(st *genState) { st.Streams[1].Backlog = 9 })
	add("generated", func(st *genState) { st.Streams[1].Generated = -4096 })
	add("cap", func(st *genState) { st.Flows[0].Pkts = make([]int, 33) })
	add("pkts", func(st *genState) { // another flow's packet
		st.Flows[0].Pkts[0], st.Flows[1].Pkts[0] = st.Flows[1].Pkts[0], st.Flows[0].Pkts[0]
	})
	add("claimed", func(st *genState) { st.Flows[1].Pkts[0] = st.Flows[0].Pkts[0] })
	add("nil packet", func(st *genState) { st.Flows[0].Pkts[0] = 0 })
	add("active", func(st *genState) { st.Active[0] = 15 - st.Active[0] })
	add("streams", func(st *genState) { st.Streams = st.Streams[:1] })
	add("rng", func(st *genState) { st.RNG = [4]uint64{} }) // found by the fuzzer: SetState panics on it
	return recs, blobs, fields
}

func TestRestoreStateRejectsHostileBlobs(t *testing.T) {
	recs, blobs, fields := hostileStates(t)
	for i, blob := range blobs {
		g := mustGen(t, restoreCfg())
		err := g.RestoreState(blob, ckpt.RestoreTable(recs))
		switch {
		case fields[i] == "" && err != nil:
			t.Fatalf("the real export does not restore: %v", err)
		case fields[i] != "" && err == nil:
			t.Errorf("case %d (%s) restored without error: %s", i, fields[i], blob)
		case fields[i] != "" && !strings.Contains(err.Error(), fields[i]):
			t.Errorf("case %d: error %q does not name %q", i, err, fields[i])
		}
	}

	// A packet some other node sent is not this generator's to queue.
	st, recs := realExport(t)
	recs[st.Flows[0].Pkts[0]-1].Src = 4
	blob, _ := json.Marshal(&st)
	if err := mustGen(t, restoreCfg()).RestoreState(blob, ckpt.RestoreTable(recs)); err == nil || !strings.Contains(err.Error(), "pkts") {
		t.Errorf("foreign-source packet: err = %v", err)
	}
}

// FuzzGeneratorRestore feeds RestoreState arbitrary blobs against a real
// packet table. A blob is either refused or yields a generator that
// holds exactly the packets it claimed and survives being pulled.
func FuzzGeneratorRestore(f *testing.F) {
	recs, blobs, _ := hostileStates(f)
	for _, blob := range blobs {
		f.Add(blob)
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		g, err := NewGenerator(restoreCfg())
		if err != nil {
			t.Fatal(err)
		}
		if g.RestoreState(blob, ckpt.RestoreTable(recs)) != nil {
			return
		}
		var st genState
		if err := json.Unmarshal(blob, &st); err != nil {
			t.Fatalf("restored a blob that does not decode: %v", err)
		}
		claimed := 0
		for _, fs := range st.Flows {
			claimed += len(fs.Pkts)
		}
		if g.PendingPackets() != claimed {
			t.Fatalf("pending %d, blob queued %d", g.PendingPackets(), claimed)
		}
		now := sim.Time(0)
		for i := 0; i < 200; i++ {
			p, wake := g.Pull(now)
			switch {
			case p != nil:
				if p.Src != 3 || p.Dst == 3 || p.Dst < 0 || p.Dst >= 16 {
					t.Fatalf("pulled %v", p)
				}
				now = now.Add(ib.DefaultLinkRate().TxTime(p.WireBytes()))
			case wake == sim.MaxTime:
				return
			case wake.After(now):
				now = wake
			default:
				t.Fatalf("wake %v at %v", wake, now)
			}
		}
	})
}
