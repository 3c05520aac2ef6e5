// Sweep3D: the paper's Figure 7 workload as a standalone program.
//
// Runs the wavefront-sweep motif over a chosen topology at a chosen link
// speed under both transports and reports the RVMA speedup, explaining
// where the time goes.
//
// Run with: go run ./examples/sweep3d [-nodes 128] [-gbps 400] [-topology dragonfly]
package main

import (
	"flag"
	"fmt"
	"log"

	"rvma/internal/motif"
	"rvma/internal/sim"
	"rvma/internal/stats"
	"rvma/internal/topology"
)

func main() {
	nodes := flag.Int("nodes", 128, "minimum node count")
	gbps := flag.Float64("gbps", 400, "link speed in Gbps")
	topoName := flag.String("topology", "dragonfly", "topology family")
	flag.Parse()

	topo, err := topology.ForNodeCount(topology.Kind(*topoName), *nodes)
	if err != nil {
		log.Fatal(err)
	}
	scfg := motif.DefaultSweep3DConfig(topo.NumNodes())
	fmt.Printf("Sweep3D on %s at %s: %dx%d rank grid, %d z-blocks of %d planes, %dB x-messages\n",
		topo.Name(), stats.FormatGbps(*gbps), scfg.Px, scfg.Py, scfg.Nz/scfg.KBA, scfg.KBA,
		scfg.Ny*scfg.KBA*scfg.Vars*8)

	run := func(kind motif.TransportKind) sim.Time {
		cfg := motif.DefaultClusterConfig(topo, kind)
		cfg.ApplyLinkSpeed(*gbps)
		c, err := motif.NewCluster(cfg)
		if err != nil {
			log.Fatal(err)
		}
		t, err := motif.RunSweep3D(c, scfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-4s makespan %-12v (%d packets, mean network latency %v)\n",
			kind, t, c.Net.TotalStats().PacketsDelivered, c.Net.MeanPacketLatency())
		return t
	}

	rv := run(motif.KindRVMA)
	rd := run(motif.KindRDMA)
	fmt.Printf("RVMA speedup: %.2fx\n", stats.Speedup(rd.Seconds(), rv.Seconds()))
	fmt.Println("\nwhy: every wavefront hop needs target-side completion. RVMA's NIC")
	fmt.Println("counts the expected operation and writes the completion pointer; RDMA")
	fmt.Println("must send a separate ordered send/recv after each put and interlock")
	fmt.Println("buffer reuse with credits, both on the critical path of the wave.")
}
