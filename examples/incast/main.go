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

const service rvma.VAddr = 0x5E41

// scenario is the example's one actor, a step record since it waits more
// than once: step runs it from one wait to the next, counting in phase.
type scenario struct {
	eng                       *sim.Engine
	server, client, straggler *rvma.Endpoint
	win, catch                *rvma.Window
	late                      *rvma.PutOp
	phase                     int
}

func (s *scenario) step() {
	s.phase++
	switch s.phase {
	case 1:
		// A normal request is served.
		s.client.Put(0, service, 0, make([]byte, 512)).Local.OnComplete(s.step)
	case 2, 5:
		s.eng.Schedule(5*sim.Microsecond, s.step)
	case 3:
		fmt.Printf("[%v] request served: service epoch = %d\n", s.eng.Now(), s.win.Epoch())

		// The server shuts the mailbox (RVMA_Close_win); a late client is
		// NACKed — the receiver controls its own resources.
		s.win.Close()
		s.late = s.straggler.Put(0, service, 0, make([]byte, 512))
		s.late.Nack.OnComplete(s.step)
	case 4:
		fmt.Printf("[%v] late request NACKed: %v\n", s.eng.Now(), s.late.Nack.Value())

		// With a catch-all installed, strays are steered there instead.
		s.server.SetCatchAll(s.catch)
		s.client.Put(0, 0xD00D, 0, make([]byte, 256)).Local.OnComplete(s.step)
	case 6:
		fmt.Printf("[%v] stray put landed in catch-all (hits: %d)\n",
			s.eng.Now(), s.server.Stats.CatchAllHits)
	}
}

func main() {
	tb, err := rvma.NewTestbed(3, rvma.TestbedConfig{Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	eng, server := tb.Engine, tb.Endpoints[0]

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

	eng.Schedule(0, (&scenario{eng: eng, server: server, client: tb.Endpoints[1], straggler: tb.Endpoints[2], win: win, catch: catch}).step)
	eng.Run()
	fmt.Printf("server stats: %d drops, %d NACKs, %d catch-all hits\n",
		server.Stats.Drops, server.Stats.Nacks, server.Stats.CatchAllHits)
}
