package ckpt

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ib"
	"repro/internal/sim"
)

// testSnapshot builds a minimal valid snapshot with a couple of events
// and one interned packet, clocked at now.
func testSnapshot(now sim.Time) *Snapshot {
	return &Snapshot{
		Version:  Version,
		Scenario: json.RawMessage(`{"name":"t"}`),
		Kernel:   sim.KernelState{Now: now, Seq: 10, Processed: 4},
		Events: []EventRecord{
			{T: int64(now), Seq: 3, Kind: "a", A0: 7, Pkt: 1},
			{T: int64(now) + 100, Seq: 5, Kind: "b", F0: 0.5, B1: true},
		},
		Pkts:   []PacketRecord{{ID: 42, Src: 1, Dst: 2, PayloadBytes: 2048}},
		Fabric: json.RawMessage(`{"links":[]}`),
		Digest: &DigestState{Sum: 0xdeadbeef, Records: 9},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	want := testSnapshot(1000)
	if err := Encode(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(want)
	b, _ := json.Marshal(got)
	if !bytes.Equal(a, b) {
		t.Fatalf("round trip changed the snapshot:\n%s\n%s", a, b)
	}
}

// corrupt encodes a snapshot and hands the bytes to mangle before
// decoding, asserting Decode rejects the result with wantErr.
func corrupt(t *testing.T, mangle func([]byte) []byte, wantErr string) {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, testSnapshot(0)); err != nil {
		t.Fatal(err)
	}
	data := mangle(buf.Bytes())
	_, err := Decode(bytes.NewReader(data))
	if err == nil {
		t.Fatalf("Decode accepted a corrupt file, wanted %q", wantErr)
	}
	if !strings.Contains(err.Error(), wantErr) {
		t.Fatalf("Decode error %q, wanted it to mention %q", err, wantErr)
	}
}

func TestDecodeRejectsBadMagic(t *testing.T) {
	corrupt(t, func(b []byte) []byte { b[0] = 'X'; return b }, "bad magic")
}

func TestDecodeRejectsWrongVersion(t *testing.T) {
	corrupt(t, func(b []byte) []byte { b[8] = 0xFF; return b }, "version")
}

// TestDecodeRefusesOlderSchema is the version-skew guard: schema 2 added
// kernel and link state a version-1 file does not carry and schema 3 a
// drop ledger a version-2 file may lack, so both places a version is
// recorded — the envelope header and the snapshot inside it — must
// refuse each old value by name rather than restore half a state. (The
// header is outside the CRC; the inner field needs the CRC recomputed,
// as an old writer would have.)
func TestDecodeRefusesOlderSchema(t *testing.T) {
	for old := 1; old < Version; old++ {
		corrupt(t, func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:12], uint32(old))
			return b
		}, fmt.Sprintf("file version %d, this build reads and writes only version 3", old))

		corrupt(t, func(b []byte) []byte {
			payload := bytes.Replace(b[20:], []byte(`"version":3`), []byte(fmt.Sprintf(`"version":%d`, old)), 1)
			if bytes.Equal(payload, b[20:]) {
				t.Fatal("payload carries no version field to age")
			}
			binary.LittleEndian.PutUint32(b[12:16], crc32.ChecksumIEEE(payload))
			return append(b[:20], payload...)
		}, fmt.Sprintf("snapshot version %d, this build reads and writes only version 3", old))
	}
}

func TestDecodeRejectsTruncatedPayload(t *testing.T) {
	corrupt(t, func(b []byte) []byte { return b[:len(b)-5] }, "truncated")
}

func TestDecodeRejectsFlippedPayloadByte(t *testing.T) {
	corrupt(t, func(b []byte) []byte { b[len(b)-3] ^= 0x40; return b }, "CRC")
}

func TestSaveAtomicLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "snap"+Ext)
	want := testSnapshot(5000)
	if err := SaveAtomic(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kernel.Now != want.Kernel.Now || len(got.Events) != 2 || got.Digest == nil {
		t.Fatalf("loaded snapshot lost state: %+v", got)
	}
	// No temp litter left behind in the checkpoint directory.
	ents, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("checkpoint dir holds %d entries, want just the snapshot", len(ents))
	}
}

func TestValidateRejectsInconsistentSnapshots(t *testing.T) {
	cases := []struct {
		name    string
		mut     func(*Snapshot)
		wantErr string
	}{
		{"no scenario", func(s *Snapshot) { s.Scenario = nil }, "no scenario"},
		{"no fabric", func(s *Snapshot) { s.Fabric = nil }, "no fabric"},
		{"kindless event", func(s *Snapshot) { s.Events[0].Kind = "" }, "no kind"},
		{"event before clock", func(s *Snapshot) { s.Events[0].T = -1 }, "before snapshot clock"},
		{"seq beyond kernel", func(s *Snapshot) { s.Events[1].Seq = 10 }, "beyond next seq"},
		{"events out of order", func(s *Snapshot) { s.Events[1].T = s.Events[0].T; s.Events[1].Seq = s.Events[0].Seq }, "out of (time, seq) order"},
		{"dangling packet ref", func(s *Snapshot) { s.Events[0].Pkt = 2 }, "references packet"},
		{"kernel position beyond next seq", func(s *Snapshot) { s.Kernel.ExecSeq = 11 }, "position seq 11 beyond next seq 10"},
		{"event behind the kernel position", func(s *Snapshot) { s.Kernel.ExecSeq = 4 }, "behind the kernel position"},
	}
	for _, tc := range cases {
		s := testSnapshot(0)
		tc.mut(s)
		err := s.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: Validate() = %v, want mention of %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestKeeperRotatesOwnFilesOnly(t *testing.T) {
	dir := t.TempDir()
	// A pre-existing checkpoint the keeper must never delete.
	foreign := filepath.Join(dir, "before"+Ext)
	if err := SaveAtomic(foreign, testSnapshot(1)); err != nil {
		t.Fatal(err)
	}

	k := &Keeper{Dir: dir, Keep: 2}
	var paths []string
	for _, now := range []sim.Time{100, 200, 300, 400} {
		p, err := k.Save(testSnapshot(now))
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}

	for _, p := range paths[:2] {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("rotated-out checkpoint %s still exists", p)
		}
	}
	for _, p := range paths[2:] {
		if _, err := Load(p); err != nil {
			t.Errorf("kept checkpoint %s: %v", p, err)
		}
	}
	if _, err := os.Stat(foreign); err != nil {
		t.Errorf("keeper deleted a file it did not write: %v", err)
	}

	latest, err := Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if latest != paths[3] {
		t.Errorf("Latest(%s) = %s, want newest %s", dir, latest, paths[3])
	}
}

func TestLatest(t *testing.T) {
	dir := t.TempDir()
	if _, err := Latest(dir); err == nil {
		t.Error("Latest on an empty dir should fail")
	}
	// Non-checkpoint files are ignored.
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Latest(dir); err == nil {
		t.Error("Latest should ignore files without the checkpoint extension")
	}
	file := filepath.Join(dir, "only"+Ext)
	if err := SaveAtomic(file, testSnapshot(7)); err != nil {
		t.Fatal(err)
	}
	if got, err := Latest(dir); err != nil || got != file {
		t.Errorf("Latest(dir) = %s, %v; want %s", got, err, file)
	}
	// A file path passes through unchanged (-resume-from a specific file).
	if got, err := Latest(file); err != nil || got != file {
		t.Errorf("Latest(file) = %s, %v; want passthrough", got, err)
	}
}

func TestNextCadence(t *testing.T) {
	cases := []struct {
		now   sim.Time
		every sim.Duration
		want  sim.Time
	}{
		{0, 100, 100},          // first tick is one cadence in, not at zero
		{99, 100, 100},         // rounds up to the grid
		{100, 100, 200},        // exactly on the grid advances to the next slot
		{250, 100, 300},        //
		{123, 0, sim.MaxTime},  // cadence off
		{123, -5, sim.MaxTime}, // defensive: negative means off too
	}
	for _, tc := range cases {
		if got := NextCadence(tc.now, tc.every); got != tc.want {
			t.Errorf("NextCadence(%d, %d) = %d, want %d", tc.now, tc.every, got, tc.want)
		}
	}
}

// PacketRecord must carry every model field of ib.Packet and nothing of
// its queue plumbing: the link is rebuilt from the custody sites' ordered
// reference lists, never stored.
func TestPacketRecordMirrorsPacketWithoutLink(t *testing.T) {
	rec := reflect.TypeOf(PacketRecord{})
	pkt := reflect.TypeOf(ib.Packet{})
	for i := 0; i < pkt.NumField(); i++ {
		name := pkt.Field(i).Name
		_, ok := rec.FieldByName(name)
		if name == "Next" {
			if ok {
				t.Fatal("PacketRecord serializes the intrusive queue link")
			}
			continue
		}
		if !ok {
			t.Errorf("PacketRecord lacks ib.Packet field %s", name)
		}
	}

	next := &ib.Packet{ID: 8}
	src := &ib.Packet{ID: 7, Type: ib.CNPPacket, Src: 1, Dst: 2, VL: 1, BECN: true, Next: next}
	exp := NewPacketTable()
	if exp.Ref(src) != 1 || exp.Ref(src) != 1 || exp.Ref(nil) != 0 {
		t.Fatal("Ref must intern idempotently from 1, with 0 for nil")
	}
	blob, err := json.Marshal(exp.Records())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(strings.ToLower(string(blob)), "next") {
		t.Fatalf("queue link leaked into the snapshot JSON: %s", blob)
	}
	got, err := RestoreTable(exp.Records()).Claim(1)
	if err != nil {
		t.Fatal(err)
	}
	want := *src
	want.Next = nil
	if *got != want {
		t.Fatalf("restored packet %+v, want %+v", *got, want)
	}
}

// Claim is the restore side's single-owner check: a reference outside
// the table, or one a second custody site asks for, is a corrupt
// snapshot and must come back as an error, not a panic.
func TestClaimRejectsBadAndDoubleReferences(t *testing.T) {
	tab := RestoreTable([]PacketRecord{{ID: 1}, {ID: 2}})
	if p, err := tab.Claim(0); p != nil || err != nil {
		t.Fatalf("Claim(0) = %v, %v; want nil, nil", p, err)
	}
	for _, ref := range []int{-1, 3, 1 << 30} {
		if _, err := tab.Claim(ref); err == nil {
			t.Errorf("Claim(%d) of a 2-packet table succeeded", ref)
		}
	}
	if p, err := tab.Claim(2); err != nil || p.ID != 2 {
		t.Fatalf("Claim(2) = %v, %v", p, err)
	}
	if _, err := tab.Claim(2); err == nil {
		t.Fatal("second Claim(2) succeeded: two custody sites own one packet")
	}
	if _, err := tab.Claim(0); err != nil {
		t.Fatal("the nil reference may be claimed any number of times")
	}
}
