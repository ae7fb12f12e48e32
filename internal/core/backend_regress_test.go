package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
)

// The pluggable-backend selector must not move any existing artifact
// key: Scenario.Backend is tagged omitempty precisely so the default
// backend's canonical JSON — and with it exp.Fingerprint — stays
// byte-identical to the pre-backend encoding. These hashes were
// captured from the tree immediately before the backend field existed;
// if one changes, every stored artifact silently stops matching its
// scenario. This test lives outside package core because exp imports
// core.
func TestDefaultBackendFingerprintUnchanged(t *testing.T) {
	pre := map[int]string{
		8:  "37670d83ffb8109cba7c6a78305225e163f8520ed81336a96524bb7673ec3b3a",
		12: "3729fe9772fde76509801f701fc2eff7d94d82313850cfde5f94090b5a31ce6e",
	}
	for radix, want := range pre {
		s := core.Default(radix)
		if radix == 12 {
			s.CC.CCTILimit = 13 // the limit Default set at radix 12 when the hash was captured
		}
		if got := exp.Fingerprint(s); got != want {
			t.Errorf("radix %d default fingerprint drifted:\n got %s\nwant %s", radix, got, want)
		}
	}
}

func TestBackendSelectorKeysFingerprint(t *testing.T) {
	base := core.Default(8)
	named := base
	named.Backend = "nocc"
	if exp.Fingerprint(named) == exp.Fingerprint(base) {
		t.Error("distinct backends share a fingerprint: artifacts would alias")
	}
	// An explicit "ibcc" is the same mechanism as the default "" but a
	// different scenario encoding; both must simulate identically (the
	// signature test covers that), yet they may key differently — what
	// matters is that "" keys exactly like the pre-backend encoding.
	empty := base
	empty.Backend = ""
	if exp.Fingerprint(empty) != exp.Fingerprint(base) {
		t.Error("empty selector altered the fingerprint")
	}
}
