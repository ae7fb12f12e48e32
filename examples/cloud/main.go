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

	ibcc "repro"
)

func main() {
	base := ibcc.DefaultScenario(12)
	base.Warmup = 2 * ibcc.Millisecond
	base.Measure = 6 * ibcc.Millisecond
	base.FracBPct = 100
	base.PPercent = 60

	fmt.Println("virtualized cluster (moving windy forest, 100% B nodes, p=60)")
	fmt.Println("hotspots move to random nodes every lifetime")
	fmt.Println()
	fmt.Printf("  %10s  %10s  %10s  %7s\n", "lifetime", "cc off", "cc on", "gain")

	lifetimes := []ibcc.Duration{
		2 * ibcc.Millisecond,
		1 * ibcc.Millisecond,
		500 * ibcc.Microsecond,
		250 * ibcc.Microsecond,
	}
	pts, err := ibcc.RunMovingSweepOpts(base, lifetimes, ibcc.RunOpts{})
	if err != nil {
		log.Fatal(err)
	}
	for _, pt := range pts {
		fmt.Printf("  %10v  %9.3fG  %9.3fG  %6.2fx\n",
			pt.Lifetime, pt.AllOff, pt.AllOn, pt.AllOn/pt.AllOff)
	}

	fmt.Println()
	fmt.Println("as the hotspot lifetime shrinks, raw throughput rises (the churn")
	fmt.Println("spreads load by itself) and the advantage of congestion control")
	fmt.Println("narrows — yet it does not hurt, matching the paper's conclusion.")
}
