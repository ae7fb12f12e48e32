package ckpt

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/sim"
)

// On-disk envelope: an 8-byte magic, a fixed little-endian header
// (version, payload length, payload CRC-32), then the JSON snapshot.
// The CRC is verified before the JSON is even parsed, so a truncated or
// bit-flipped file from a crash mid-write is detected outright instead
// of feeding half a state into a restore.
var fileMagic = [8]byte{'I', 'B', 'C', 'K', 'P', 'T', '0', '1'}

// Ext is the checkpoint file extension.
const Ext = ".ibckpt"

// versionError explains a schema mismatch. There is no migration: a
// snapshot is exact kernel and fabric state, and a layout that lacks (or
// adds) a field cannot be continued byte-identically — the run has to
// be repeated from its scenario.
func versionError(got int) error {
	return fmt.Errorf("version %d, this build reads and writes only version %d (checkpoints do not migrate; re-run from the scenario)", got, Version)
}

// Encode writes the snapshot envelope to w.
func Encode(w io.Writer, s *Snapshot) error {
	s.Version = Version
	payload, err := json.Marshal(s)
	if err != nil {
		return fmt.Errorf("ckpt: encoding snapshot: %w", err)
	}
	var hdr [20]byte
	copy(hdr[:8], fileMagic[:])
	binary.LittleEndian.PutUint32(hdr[8:12], Version)
	binary.LittleEndian.PutUint32(hdr[12:16], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint32(hdr[16:20], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(payload)
	return err
}

// Decode reads and fully validates a snapshot envelope: magic, version,
// length, CRC, then schema.
func Decode(r io.Reader) (*Snapshot, error) {
	var hdr [20]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("ckpt: reading header: %w", err)
	}
	if !bytes.Equal(hdr[:8], fileMagic[:]) {
		return nil, fmt.Errorf("ckpt: bad magic (not a checkpoint file)")
	}
	if v := binary.LittleEndian.Uint32(hdr[8:12]); v != Version {
		return nil, fmt.Errorf("ckpt: file %w", versionError(int(v)))
	}
	wantCRC := binary.LittleEndian.Uint32(hdr[12:16])
	n := binary.LittleEndian.Uint32(hdr[16:20])
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("ckpt: truncated payload: %w", err)
	}
	if got := crc32.ChecksumIEEE(payload); got != wantCRC {
		return nil, fmt.Errorf("ckpt: payload CRC %08x, want %08x (corrupt file)", got, wantCRC)
	}
	snap := new(Snapshot)
	if err := json.Unmarshal(payload, snap); err != nil {
		return nil, fmt.Errorf("ckpt: decoding snapshot: %w", err)
	}
	if err := snap.Validate(); err != nil {
		return nil, err
	}
	return snap, nil
}

// SaveAtomic writes the snapshot to path crash-safely (WriteFileAtomic),
// creating its directory; the CRC in the envelope catches what a crash
// cannot tear but storage can.
func SaveAtomic(path string, s *Snapshot) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := Encode(&buf, s); err != nil {
		return err
	}
	return WriteFileAtomic(path, buf.Bytes())
}

// WriteFileAtomic is the durable-write primitive of everything a run
// leaves behind (checkpoints, sweep artifacts, manifests, run reports):
// temp file in path's directory, write, fsync the file, rename over
// path, fsync the directory. A crash — or a second Ctrl-C — at any
// instant leaves either the old file or the new one, never a torn mix.
// The file is world-readable, as os.WriteFile(path, data, 0o644) leaves it.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+"-*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return SyncDir(dir)
}

// SyncDir fsyncs a directory so a just-renamed entry survives a crash.
// Filesystems that refuse directory fsync (some CI tmpfs mounts) are
// tolerated: the rename itself is still atomic there.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !os.IsPermission(err) {
		return fmt.Errorf("ckpt: fsync %s: %w", dir, err)
	}
	return nil
}

// Load reads and validates the checkpoint at path.
func Load(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Decode(f)
}

// Keeper writes a rolling series of checkpoints into a directory,
// keeping the newest Keep files (plus whatever was there before it
// started) and deleting its own older ones.
type Keeper struct {
	// Dir receives the files.
	Dir string
	// Keep bounds the series; values below 1 keep exactly 1.
	Keep int

	written []string
}

// Save writes the snapshot as ckpt-<sim time>.ibckpt and rotates the
// series. It returns the written path.
func (k *Keeper) Save(s *Snapshot) (string, error) {
	path := filepath.Join(k.Dir, fmt.Sprintf("ckpt-%020d%s", int64(s.Kernel.Now), Ext))
	if err := SaveAtomic(path, s); err != nil {
		return "", err
	}
	k.written = append(k.written, path)
	keep := k.Keep
	if keep < 1 {
		keep = 1
	}
	for len(k.written) > keep {
		old := k.written[0]
		k.written = k.written[1:]
		if old != path {
			os.Remove(old)
		}
	}
	return path, nil
}

// Latest returns the newest checkpoint file under dir (by the zero-
// padded sim-time in the name, which sorts lexicographically), or an
// error when none exists. Passing a file path returns it unchanged, so
// -resume-from accepts either a directory or a specific checkpoint.
func Latest(dir string) (string, error) {
	fi, err := os.Stat(dir)
	if err != nil {
		return "", err
	}
	if !fi.IsDir() {
		return dir, nil
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), Ext) {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return "", fmt.Errorf("ckpt: no %s files under %s", Ext, dir)
	}
	sort.Strings(names)
	return filepath.Join(dir, names[len(names)-1]), nil
}

// NextCadence returns the first checkpoint instant at or after now on
// an every-spaced grid from time zero. A non-positive cadence returns
// sim.MaxTime (checkpointing off).
func NextCadence(now sim.Time, every sim.Duration) sim.Time {
	if every <= 0 {
		return sim.MaxTime
	}
	n := int64(now)/int64(every) + 1
	return sim.Time(n * int64(every))
}
