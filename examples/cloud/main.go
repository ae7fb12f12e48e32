// Cloud: the moving-forest workload of section III-C — a cluster running
// changing virtual jobs whose communication pattern is unknown and
// shifts over time. Each contributor subset refocuses on a fresh random
// hotspot every lifetime; as lifetimes shrink the traffic becomes a
// storm of short-lived congestion trees. The example shows the paper's
// conclusion: congestion control keeps helping as the pattern becomes
// more dynamic, but its advantage shrinks because the churn itself
// relieves congestion.
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/sim"
)

func main() {
	base := core.Default(12)
	base.Warmup = 2 * sim.Millisecond
	base.Measure = 6 * sim.Millisecond
	base.FracBPct = 100
	base.PPercent = 60

	fmt.Println("virtualized cluster (moving windy forest, 100% B nodes, p=60)")
	fmt.Println("hotspots move to random nodes every lifetime")
	fmt.Println()
	lifetimes := []sim.Duration{
		2 * sim.Millisecond,
		1 * sim.Millisecond,
		500 * sim.Microsecond,
		250 * sim.Microsecond,
	}
	recs, err := core.RunPairs(core.MovingRows(base, lifetimes), nil, core.Opts{})
	if err != nil {
		log.Fatal(err)
	}
	core.PrintPaper(os.Stdout, core.Records(recs))
	fmt.Println("as the hotspot lifetime shrinks, raw throughput rises (the churn")
	fmt.Println("spreads load by itself) and the advantage of congestion control")
	fmt.Println("narrows — yet it does not hurt, matching the paper's conclusion.")
}
