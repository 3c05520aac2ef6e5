// Halo3D: the paper's Figure 8 workload as a standalone program.
//
// Runs the 6-face halo exchange over a chosen topology/speed under both
// transports; bandwidth-heavy, so the RVMA advantage is smaller than
// Sweep3D's but grows as links get faster and fixed per-message overheads
// dominate.
//
// Run with: go run ./examples/halo3d [-nodes 128] [-gbps 400] [-topology hyperx]
package main

import (
	"flag"
	"fmt"
	"log"

	"rvma/internal/fabric"
	"rvma/internal/motif"
	"rvma/internal/sim"
	"rvma/internal/stats"
	"rvma/internal/topology"
)

func main() {
	nodes := flag.Int("nodes", 128, "minimum node count")
	gbps := flag.Float64("gbps", 400, "link speed in Gbps")
	topoName := flag.String("topology", "hyperx", "topology family")
	routing := flag.String("routing", "static", "routing: static (DOR), adaptive, valiant")
	flag.Parse()

	topo, err := topology.ForNodeCount(topology.Kind(*topoName), *nodes)
	if err != nil {
		log.Fatal(err)
	}
	var route fabric.RoutingMode
	switch *routing {
	case "static":
		route = fabric.RouteStatic
	case "adaptive":
		route = fabric.RouteAdaptive
	case "valiant":
		route = fabric.RouteValiant
	default:
		log.Fatalf("unknown routing %q", *routing)
	}

	hcfg := motif.DefaultHalo3DConfig(topo.NumNodes())
	fmt.Printf("Halo3D on %s (%s routing) at %s: %dx%dx%d ranks, %dB x-faces, %d iterations\n",
		topo.Name(), route, stats.FormatGbps(*gbps), hcfg.Px, hcfg.Py, hcfg.Pz,
		hcfg.Ny*hcfg.Nz*hcfg.Vars*8, hcfg.Iterations)

	run := func(kind motif.TransportKind) sim.Time {
		cfg := motif.DefaultClusterConfig(topo, kind)
		cfg.Routing = route
		cfg.ApplyLinkSpeed(*gbps)
		c, err := motif.NewCluster(cfg)
		if err != nil {
			log.Fatal(err)
		}
		t, err := motif.RunHalo3D(c, hcfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-4s makespan %-12v (%.1f MB moved, mean network latency %v)\n",
			kind, t, float64(c.Net.TotalStats().BytesDelivered)/1e6, c.Net.MeanPacketLatency())
		return t
	}

	rv := run(motif.KindRVMA)
	rd := run(motif.KindRDMA)
	fmt.Printf("RVMA speedup: %.2fx\n", stats.Speedup(rd.Seconds(), rv.Seconds()))
}
