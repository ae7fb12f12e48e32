package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"

	"repro/internal/ckpt"
	"repro/internal/core"
)

// QuarantineDirName is the subdirectory of an artifact store that
// receives corrupt artifacts.
const QuarantineDirName = "quarantine"

// Artifact is the JSON document the store persists per simulation: the
// full result, the scenario that produced it, and the fingerprint that
// keys it.
type Artifact struct {
	// Name is the scenario's name.
	Name string `json:"name"`
	// Fingerprint is the scenario's content hash (hex SHA-256).
	Fingerprint string `json:"fingerprint"`
	// Scenario is the exact configuration that ran.
	Scenario core.Scenario `json:"scenario"`
	// Result is the complete simulation outcome.
	Result *core.Result `json:"result"`
	// ElapsedNS is the wall-clock simulation time in nanoseconds.
	ElapsedNS int64 `json:"elapsed_ns"`
	// SavedAt is the artifact's creation time (RFC 3339).
	SavedAt string `json:"saved_at"`
	// CRC32 is the IEEE checksum of the artifact's canonical JSON with
	// this field zeroed; Lookup verifies it, so a torn or bit-flipped
	// artifact is quarantined instead of silently substituting for a
	// run. Zero means the artifact predates checksumming.
	CRC32 uint32 `json:"crc32,omitempty"`
}

// encode marshals the artifact canonically with its checksum filled in.
func (a *Artifact) encode() ([]byte, error) {
	a.CRC32 = 0
	plain, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return nil, err
	}
	a.CRC32 = crc32.ChecksumIEEE(plain)
	return json.MarshalIndent(a, "", "  ")
}

// verify re-derives the canonical checksum and compares. Artifacts
// written before checksumming (CRC32 == 0) pass.
func (a *Artifact) verify() error {
	got := a.CRC32
	if got == 0 {
		return nil
	}
	a.CRC32 = 0
	plain, err := json.MarshalIndent(a, "", "  ")
	a.CRC32 = got
	if err != nil {
		return err
	}
	if want := crc32.ChecksumIEEE(plain); want != got {
		return fmt.Errorf("crc %08x, want %08x", got, want)
	}
	return nil
}

// Fingerprint hashes every field of a scenario (via its canonical JSON
// encoding) into a stable hex key: two scenarios collide exactly when
// they would simulate identically, which is what makes artifacts safe
// to substitute for runs.
func Fingerprint(s core.Scenario) string {
	b, err := json.Marshal(s)
	if err != nil {
		// Scenario is a plain value struct; this cannot fail.
		panic(fmt.Sprintf("exp: fingerprint: %v", err))
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// Store persists one JSON artifact per simulated scenario in a
// directory, keyed by scenario fingerprint. A populated store makes
// sweeps resumable: re-running the same scenarios loads the saved
// results instead of simulating (see SweepOpts and core.Opts.Lookup).
// Save and Lookup are safe for concurrent use.
type Store struct {
	dir string
	// onCorrupt, when set, observes every artifact quarantined by Lookup.
	onCorrupt func(path string)
}

// NewStore opens (creating if needed) an artifact directory.
func NewStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("exp: store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's directory.
func (st *Store) Dir() string { return st.dir }

// QuarantineDir returns the store's quarantine directory (not
// necessarily existing yet).
func (st *Store) QuarantineDir() string { return filepath.Join(st.dir, QuarantineDirName) }

// OnCorrupt registers an observer for quarantined-artifact paths (the
// sweep trackers count them).
func (st *Store) OnCorrupt(fn func(path string)) { st.onCorrupt = fn }

// path returns the artifact filename for a fingerprint.
func (st *Store) path(fp string) string {
	return filepath.Join(st.dir, fp[:16]+".json")
}

// Save writes the run's artifact crash-safely: temp file in the store
// directory, write, fsync the file, rename over the final name, fsync
// the directory. An interrupted sweep therefore never leaves a torn
// artifact under the final name, and a completed Save survives a
// power cut.
func (st *Store) Save(s core.Scenario, r *core.Result, elapsed time.Duration) error {
	fp := Fingerprint(s)
	a := Artifact{
		Name:        s.Name,
		Fingerprint: fp,
		Scenario:    s,
		Result:      r,
		ElapsedNS:   elapsed.Nanoseconds(),
		SavedAt:     time.Now().UTC().Format(time.RFC3339),
	}
	b, err := a.encode()
	if err != nil {
		return fmt.Errorf("exp: store: encode %s: %w", s.Name, err)
	}
	if err := ckpt.WriteFileAtomic(st.path(fp), append(b, '\n')); err != nil {
		return fmt.Errorf("exp: store: %s: %w", s.Name, err)
	}
	return nil
}

// Lookup returns the stored result for a scenario, if a valid artifact
// with a matching fingerprint exists; it is the core.Opts.Lookup hook.
// A corrupt, truncated or mismatching artifact is moved into the
// quarantine directory — so the scenario re-runs and the bad file stays
// inspectable — instead of aborting or being silently trusted. An
// intact artifact whose result lacks the whole-run window is a plain
// miss: the scenario re-runs and Save overwrites it.
func (st *Store) Lookup(s core.Scenario) (*core.Result, bool) {
	fp := Fingerprint(s)
	path := st.path(fp)
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	var a Artifact
	if err := json.Unmarshal(b, &a); err != nil {
		st.quarantineFile(path, fmt.Sprintf("invalid JSON: %v", err))
		return nil, false
	}
	switch {
	case a.Fingerprint != fp:
		st.quarantineFile(path, fmt.Sprintf("fingerprint %s under key %s", a.Fingerprint, fp))
		return nil, false
	case a.Result == nil:
		st.quarantineFile(path, "artifact carries no result")
		return nil, false
	}
	if err := a.verify(); err != nil {
		st.quarantineFile(path, err.Error())
		return nil, false
	}
	if a.Result.WholeRun == nil {
		// Intact, but written before results carried the whole-run
		// window: a plain miss, re-simulated and overwritten.
		return nil, false
	}
	return a.Result, true
}

// quarantineFile moves a bad artifact aside with a sidecar note saying
// why. Failures to move are swallowed: quarantine is best-effort
// protection for the sweep, never a new way to abort it.
func (st *Store) quarantineFile(path, reason string) {
	qdir := st.QuarantineDir()
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return
	}
	dst := filepath.Join(qdir, filepath.Base(path))
	if err := os.Rename(path, dst); err != nil {
		return
	}
	note := fmt.Sprintf("{\"file\":%q,\"reason\":%q,\"at\":%q}\n",
		filepath.Base(path), reason, time.Now().UTC().Format(time.RFC3339))
	_ = os.WriteFile(dst+".reason.json", []byte(note), 0o644)
	if st.onCorrupt != nil {
		st.onCorrupt(dst)
	}
}

// SaveResult adapts Save to the core.Opts.OnResult hook: fresh results
// are persisted, cache hits are left alone. Persistence errors are
// reported through errf (stderr logging in the CLIs) rather than
// aborting the sweep.
func (st *Store) SaveResult(errf func(error)) func(core.Scenario, *core.Result, bool) {
	return func(s core.Scenario, r *core.Result, cached bool) {
		if cached {
			return
		}
		if err := st.Save(s, r, 0); err != nil && errf != nil {
			errf(err)
		}
	}
}

// Len counts the artifacts currently in the store.
func (st *Store) Len() int {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".json" {
			n++
		}
	}
	return n
}
