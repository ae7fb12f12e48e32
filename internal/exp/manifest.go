package exp

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/ckpt"
)

// ManifestName is the filename WriteManifest produces inside the store
// directory. Store.Len ignores it.
const ManifestName = "MANIFEST.json"

// ManifestJob is one completed run in a manifest.
type ManifestJob struct {
	// Name is the scenario's name; Fingerprint keys its artifact.
	Name        string `json:"name"`
	Fingerprint string `json:"fingerprint"`
	// Artifact is the artifact filename relative to the store directory.
	Artifact string `json:"artifact"`
	// Cached marks a run that was served from the store.
	Cached bool `json:"cached,omitempty"`
}

// Manifest is the resumable record of a sweep as its store saw it: the
// runs that completed — saved fresh or served from an artifact — out of
// the declared total. A sweep relaunched over the same store skips the
// Done set via the artifact lookup, so NumPending is the remaining work.
// The sweep drivers do not enumerate their scenarios up front, so
// pending runs are counted, not listed.
type Manifest struct {
	// WrittenAt is the manifest's creation time (RFC 3339).
	WrittenAt string `json:"written_at"`
	// Interrupted marks a manifest flushed by a signal-triggered drain
	// rather than a completed sweep.
	Interrupted bool `json:"interrupted,omitempty"`
	// Total is the declared sweep size (Store.Expect), or the number of
	// completions when that is larger.
	Total      int `json:"total"`
	NumDone    int `json:"num_done"`
	NumPending int `json:"num_pending"`
	// Done lists the completed runs in completion order.
	Done []ManifestJob `json:"done,omitempty"`
}

// WriteManifest persists the manifest of what this store has observed
// crash-safely into the store directory and returns its path. Call it
// from a graceful drain (after a sweep returns a context error) so the
// partial sweep is resumable, or after a completed sweep as a summary.
func (st *Store) WriteManifest(interrupted bool) (string, error) {
	st.mu.Lock()
	m := Manifest{
		WrittenAt:   time.Now().UTC().Format(time.RFC3339),
		Interrupted: interrupted,
		Total:       max(st.total, len(st.done)),
		NumDone:     len(st.done),
		Done:        st.done,
	}
	m.NumPending = m.Total - m.NumDone
	b, err := json.MarshalIndent(&m, "", "  ")
	st.mu.Unlock()
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
