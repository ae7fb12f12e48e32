package exp

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/ckpt"
	"repro/internal/telemetry"
)

// ManifestName is the filename WriteManifest produces inside the store
// directory. Store.Len ignores it.
const ManifestName = "MANIFEST.json"

// Manifest is the record of a sweep an interrupt left behind: how many
// of its runs finished, fresh or served from an artifact, out of the
// sweep's declared size. A sweep relaunched over the same store skips
// the finished runs via the artifact lookup, so NumPending is the
// remaining work. The fingerprint-named artifacts are the finished runs
// themselves, so the manifest counts them rather than listing them.
type Manifest struct {
	// WrittenAt is the manifest's creation time (RFC 3339).
	WrittenAt string `json:"written_at"`
	// Interrupted marks a manifest flushed by a signal-triggered drain
	// rather than a completed sweep.
	Interrupted bool `json:"interrupted,omitempty"`
	// Total is the sweep's declared size, or NumDone when that is
	// larger.
	Total      int `json:"total"`
	NumDone    int `json:"num_done"`
	NumPending int `json:"num_pending"`
}

// WriteManifest persists the manifest of a sweep whose span tracker
// reads sw crash-safely into the store directory and returns its path:
// Total is sw.Total and NumDone sw.Done, cache hits included. Call it
// from a graceful drain (after a sweep returns a context error) so the
// partial sweep is resumable, or after a completed sweep as a summary.
func (st *Store) WriteManifest(sw telemetry.SweepStats, interrupted bool) (string, error) {
	m := Manifest{
		WrittenAt:   time.Now().UTC().Format(time.RFC3339),
		Interrupted: interrupted,
		Total:       max(sw.Total, sw.Done),
		NumDone:     sw.Done,
	}
	m.NumPending = m.Total - m.NumDone
	b, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return "", fmt.Errorf("exp: manifest: %w", err)
	}
	path := filepath.Join(st.dir, ManifestName)
	if err := ckpt.WriteFileAtomic(path, append(b, '\n')); err != nil {
		return "", fmt.Errorf("exp: manifest: %w", err)
	}
	return path, nil
}

// ReadManifest loads a previously written manifest from the store
// directory; ok is false when none exists.
func (st *Store) ReadManifest() (*Manifest, bool, error) {
	b, err := os.ReadFile(filepath.Join(st.dir, ManifestName))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("exp: manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, false, fmt.Errorf("exp: manifest: %w", err)
	}
	return &m, true, nil
}
