package core_test

import (
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
)

const paperScenariosGolden = "testdata/paper_scenarios.golden"

// TestPaperScenariosGolden pins, for every experiment of the paper at
// radix 8 with the short windows (Table II with the CI rows of two
// seeds), the ordered name and exp.Fingerprint of every scenario
// RunExperiment submits, and that their count is ExperimentSims.
// Fingerprints key -out artifact stores, and they hash the name, so a
// change to either stops an existing store from resuming.
// A recording Lookup answers every run: nothing is simulated.
func TestPaperScenariosGolden(t *testing.T) {
	var got strings.Builder
	name, sims := "", 0
	o := core.Opts{Lookup: func(s core.Scenario) (*core.Result, bool) {
		fmt.Fprintf(&got, "%-6s %s %s\n", name, exp.Fingerprint(s), s.Name)
		sims++
		return &core.Result{}, true
	}}
	base, seeds := core.Default(8), []uint64{1, 2}
	rows := core.Paper(base, core.PaperPValues())
	for len(rows) > 0 { // one experiment at a time, as paperbench runs them
		n := 1
		for n < len(rows) && rows[n].Exp == rows[0].Exp {
			n++
		}
		name, sims = rows[0].Exp, 0
		if err := core.RunExperiment(io.Discard, base, rows[:n], seeds, o); err != nil {
			t.Fatal(err)
		}
		if want := core.ExperimentSims(rows[:n], seeds); sims != want {
			t.Errorf("%s: %d scenarios submitted, ExperimentSims says %d", name, sims, want)
		}
		rows = rows[n:]
	}

	want, err := os.ReadFile(paperScenariosGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("submitted scenarios differ from %s; got\n%s", paperScenariosGolden, got.String())
	}
}
