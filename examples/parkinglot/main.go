// Parkinglot: the fairness problem that motivated the authors' earlier
// hardware study ([7] in the paper). Four senders at increasing distance
// from a common destination share a chain of switches; hop-by-hop
// round-robin arbitration gives the closest sender half the bottleneck,
// the next a quarter, and so on. Congestion control at the QP level
// throttles every contributor to its fair share and solves the parking
// lot problem.
//
// This example drives the library's lower layers directly (topology,
// fabric, congestion control, generators) rather than a core.Scenario,
// showing how custom experiments are assembled.
package main

import (
	"fmt"
	"log"

	"repro/internal/cc"
	"repro/internal/fabric"
	"repro/internal/ib"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/traffic"
)

func run(ccOn bool) []float64 {
	// Chain of 4 crossbars with 2 hosts each; host 7 on the last
	// switch is the common destination.
	tp, err := topo.LinearChain(4, 2)
	if err != nil {
		log.Fatal(err)
	}
	lft, err := topo.ComputeLFT(tp)
	if err != nil {
		log.Fatal(err)
	}
	simr := sim.New()
	net, err := fabric.New(simr, tp, lft, fabric.DefaultConfig(), fabric.Hooks{})
	if err != nil {
		log.Fatal(err)
	}

	var throttle traffic.Throttle
	if ccOn {
		params := cc.PaperParams()
		params.CCTILimit = 15 // four contributors: a small CCT suffices
		mgr, err := cc.New(net, params)
		if err != nil {
			log.Fatal(err)
		}
		net.SetHooks(mgr.Hooks())
		throttle = mgr
	}

	senders := []ib.LID{0, 2, 4, 6} // 3, 2, 1 and 0 switch-hops from dst
	const dst = ib.LID(7)
	rng := sim.NewRNG(7)
	for _, s := range senders {
		gen, err := traffic.NewGenerator(traffic.NodeConfig{
			LID:           s,
			NumNodes:      tp.NumHosts,
			PPercent:      100,
			Hotspot:       traffic.StaticTarget(dst),
			InjectionRate: ib.DefaultInjectionRate(),
			Throttle:      throttle,
			RNG:           rng.Derive(uint64(s)),
		})
		if err != nil {
			log.Fatal(err)
		}
		net.HCA(s).SetSource(gen)
	}

	net.Start()
	warmup := sim.Time(0).Add(4 * sim.Millisecond)
	simr.RunUntil(warmup)
	base := make([]uint64, len(senders))
	for i, s := range senders {
		base[i] = net.HCA(s).Counters().TxDataPayload
	}
	window := 8 * sim.Millisecond
	simr.RunUntil(warmup.Add(window))

	rates := make([]float64, len(senders))
	for i, s := range senders {
		sent := net.HCA(s).Counters().TxDataPayload - base[i]
		rates[i] = float64(sent) * 8 / window.Seconds() / 1e9
	}
	return rates
}

func main() {
	fmt.Println("the parking lot problem: 4 senders, 3/2/1/0 hops from one destination")
	fmt.Println()
	labels := []string{"3 hops", "2 hops", "1 hop ", "0 hops"}
	for _, ccOn := range []bool{false, true} {
		rates := run(ccOn)
		state := "off"
		if ccOn {
			state = "on "
		}
		fmt.Printf("  cc %s:", state)
		var total float64
		for i, r := range rates {
			fmt.Printf("  %s %6.3fG", labels[i], r)
			total += r
		}
		fmt.Printf("   total %6.3fG  fairness %.3f\n", total, metrics.Jain(rates))
	}
	fmt.Println()
	fmt.Println("without CC, round-robin arbitration halves the rate per extra hop;")
	fmt.Println("with CC every contributor converges to its fair bottleneck share.")
}
