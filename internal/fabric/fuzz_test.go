package fabric

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/ckpt"
)

// FuzzFabricRestore feeds RestoreState arbitrary fabric states and
// packet tables against the restore-hardening fixture, seeded with
// congestedState's snapshot and every corruption of
// TestRestoreStateRejectsCorruptSnapshots. An input is either refused or
// restores a fabric that exports the input's canonical form; it never
// panics.
func FuzzFabricRestore(f *testing.F) {
	blob, recs, ks := congestedState(f)
	for _, c := range snapshotCorruptions(ks) {
		var st State
		if err := json.Unmarshal(blob, &st); err != nil {
			f.Fatal(err)
		}
		rc := append([]ckpt.PacketRecord(nil), recs...)
		c.corrupt(&st, rc)
		sb, err := json.Marshal(&st)
		if err != nil {
			f.Fatal(err)
		}
		rb, err := json.Marshal(rc)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(sb, rb)
	}
	f.Fuzz(func(t *testing.T, stBlob, recBlob []byte) {
		var st State
		var recs []ckpt.PacketRecord
		if json.Unmarshal(stBlob, &st) != nil || json.Unmarshal(recBlob, &recs) != nil {
			return
		}
		n := ckptNet(t)
		n.Sim().BeginRestore(ks)
		if n.RestoreState(&st, ckpt.RestoreTable(recs)) != nil {
			return
		}
		requireCanonicalReexport(t, n, stBlob, recs)
	})
}

// requireCanonicalReexport fails t unless n, restored from the state
// given and the packet records recs, exports given's canonical form.
func requireCanonicalReexport(t *testing.T, n *Network, given []byte, recs []ckpt.PacketRecord) {
	t.Helper()
	var want State
	if err := json.Unmarshal(given, &want); err != nil {
		t.Fatal(err)
	}
	wantRecs := canonicalize(n, &want, recs)
	tab := ckpt.NewPacketTable()
	got, err := json.Marshal(n.ExportState(tab))
	if err != nil {
		t.Fatal(err)
	}
	wantBlob, err := json.Marshal(&want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantBlob) {
		t.Fatalf("restored state re-exports as\n%s\nwant\n%s", got, wantBlob)
	}
	gotRecs, err := json.Marshal(tab.Records())
	if err != nil {
		t.Fatal(err)
	}
	wantRecBlob, err := json.Marshal(wantRecs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotRecs, wantRecBlob) {
		t.Fatalf("restored packets re-export as\n%s\nwant\n%s", gotRecs, wantRecBlob)
	}
}

// canonicalize rewrites st, which restored into n, to what n exports:
// its packet references renumbered in the order ExportState interns
// them, an idle serializer's busy-until key cleared, and an arbiter
// pointer at its ring's end wrapped to 0. It returns the packet records
// the renumbered references index.
func canonicalize(n *Network, st *State, recs []ckpt.PacketRecord) []ckpt.PacketRecord {
	var out []ckpt.PacketRecord
	ref := func(r *int) {
		if *r != 0 {
			out = append(out, recs[*r-1])
			*r = len(out)
		}
	}
	refs := func(rs []int) {
		for i := range rs {
			ref(&rs[i])
		}
	}
	link := func(l *LinkOutState) {
		if !l.Busy {
			l.BusyUntil, l.TxSeq = 0, 0
		}
	}
	for i := range st.HCAs {
		h := &st.HCAs[i]
		link(&h.Out)
		refs(h.Obuf)
		refs(h.Ctrl)
		ref(&h.DmaPkt)
		refs(h.RxQ)
		ref(&h.SinkPkt)
	}
	for i := range st.Switches {
		for _, o := range st.Switches[i].Out {
			if o == nil {
				continue
			}
			link(&o.Link)
			if o.RR == int(n.switches[i].ring) {
				o.RR = 0
			}
			for _, v := range o.VoQs {
				refs(v.Pkts)
			}
		}
	}
	return out
}
