package core

import (
	"os"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestDiagTableII prints a reduced-scale Table II; run manually with
// -run TestDiagTableII -v while tuning.
func TestDiagTableII(t *testing.T) {
	if !testing.Verbose() {
		t.Skip("diagnostic")
	}
	for _, radix := range []int{12, 18} {
		base := Default(radix)
		base.Warmup = 2 * sim.Millisecond
		base.Measure = 4 * sim.Millisecond
		start := time.Now()
		tab, err := RunTableIIOpts(base, Opts{})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("radix %d (%d nodes) took %v", radix, base.NumNodes(), time.Since(start))
		tab.Print(os.Stdout)
	}
}
