// Incast: receiver-side resource control in the many-to-one scenario from
// the paper's abstract — "RDMA unattractive for use in many-to-one
// communication models such as those found in public internet
// client-server situations".
//
// The server closes its mailbox, late traffic is NACKed back to the
// senders (or silently dropped when NACKs are disabled for DoS
// protection), and a catch-all mailbox can absorb strays. The throughput
// side, an RVMA server's one mailbox against an RDMA server's buffer per
// client, is `rvmasim -motif incast -transport rvma|rdma`.
//
// Run with: go run ./examples/incast
package main

import (
	"fmt"
	"log"

	"rvma"
	"rvma/internal/sim"
)

func main() {
	tb, err := rvma.NewTestbed(3, rvma.TestbedConfig{Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	eng, server, client, straggler := tb.Engine, tb.Endpoints[0], tb.Endpoints[1], tb.Endpoints[2]

	const service rvma.VAddr = 0x5E41
	win, err := server.InitWindow(service, 512, rvma.EpochBytes)
	if err != nil {
		log.Fatal(err)
	}
	win.PostBuffer(512)

	catch, err := server.InitWindow(0xCA7C4, 1<<20, rvma.EpochBytes)
	if err != nil {
		log.Fatal(err)
	}
	catch.PostBuffer(64 * 1024)

	eng.Spawn("scenario", func(p *sim.Process) {
		// A normal request is served.
		op := client.Put(0, service, 0, make([]byte, 512))
		p.Wait(op.Local)
		p.Sleep(5 * sim.Microsecond)
		fmt.Printf("[%v] request served: service epoch = %d\n", p.Now(), win.Epoch())

		// The server shuts the mailbox (RVMA_Close_win); a late client is
		// NACKed — the receiver controls its own resources.
		win.Close()
		late := straggler.Put(0, service, 0, make([]byte, 512))
		p.Wait(late.Nack)
		fmt.Printf("[%v] late request NACKed: %v\n", p.Now(), late.Nack.Value())

		// With a catch-all installed, strays are steered there instead.
		server.SetCatchAll(catch)
		stray := client.Put(0, 0xD00D, 0, make([]byte, 256))
		p.Wait(stray.Local)
		p.Sleep(5 * sim.Microsecond)
		fmt.Printf("[%v] stray put landed in catch-all (hits: %d)\n",
			p.Now(), server.Stats.CatchAllHits)
	})
	eng.Run()
	fmt.Printf("server stats: %d drops, %d NACKs, %d catch-all hits\n",
		server.Stats.Drops, server.Stats.Nacks, server.Stats.CatchAllHits)
}
