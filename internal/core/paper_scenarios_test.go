package core_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
)

const paperScenariosGolden = "testdata/paper_scenarios.golden"

// TestPaperScenariosGolden pins, for every experiment of the paper at
// radix 8 with the short windows (Table II over two seeds, as `-seeds 2`
// submits it), the ordered name and exp.Fingerprint of every scenario
// RunPairs submits, and that there are two per row and seed.
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
	rows := core.Paper(core.Default(8), core.PaperPValues())
	for len(rows) > 0 { // one experiment at a time, as paperbench runs them
		n := 1
		for n < len(rows) && rows[n].Exp == rows[0].Exp {
			n++
		}
		name, sims = rows[0].Exp, 0
		seeds := []uint64{1}
		if name == "table2" {
			seeds = []uint64{1, 2}
		}
		if _, err := core.RunPairs(rows[:n], seeds, o); err != nil {
			t.Fatal(err)
		}
		if want := 2 * n * len(seeds); sims != want {
			t.Errorf("%s: %d scenarios submitted, want %d", name, sims, want)
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
