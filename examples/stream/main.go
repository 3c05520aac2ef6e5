// Byte streams over Receiver-Managed RVMA (paper §IV-B): a tiny
// request/response service written like sockets code, with no RDMA-style
// buffer negotiation anywhere.
//
// The client writes length-prefixed requests; the server reads them like a
// TCP service and streams back responses. When a response is smaller than
// the stream's segment threshold, the reader claims the partial segment
// with RVMA_Win_inc_epoch — visible in the EarlyClaims counter.
//
// Run with: go run ./examples/stream
package main

import (
	"encoding/binary"
	"fmt"
	"log"

	"rvma"
	"rvma/internal/fabric"
	"rvma/internal/rstream"
	"rvma/internal/sim"
)

func main() {
	fcfg := fabric.DefaultConfig()
	fcfg.Routing = fabric.RouteStatic // streams need byte order, like TCP on one path
	tb, err := rvma.NewTestbed(2, rvma.TestbedConfig{Fabric: &fcfg, Seed: 21})
	if err != nil {
		log.Fatal(err)
	}
	eng := tb.Engine
	client, server, err := rstream.Pair(tb.Endpoints[0], tb.Endpoints[1], 1, rstream.Config{SegmentBytes: 1024})
	if err != nil {
		log.Fatal(err)
	}

	requests := []string{"GET /status", "GET /metrics", "POST /rewind?epoch=3"}

	// readFrame reads a 4-byte length prefix then the body.
	readFrame := func(p *sim.Process, c *rstream.Conn) string {
		f, err := c.Read(4)
		if err != nil {
			log.Fatal(err)
		}
		p.Wait(f)
		n := int(binary.LittleEndian.Uint32(f.Value().([]byte)))
		f, err = c.Read(n)
		if err != nil {
			log.Fatal(err)
		}
		p.Wait(f)
		return string(f.Value().([]byte))
	}
	writeFrame := func(c *rstream.Conn, s string) {
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], uint32(len(s)))
		if _, err := c.Write(append(hdr[:], s...)); err != nil {
			log.Fatal(err)
		}
	}

	eng.Spawn("client", func(p *sim.Process) {
		for _, req := range requests {
			writeFrame(client, req)
			resp := readFrame(p, client)
			fmt.Printf("[%v] client: %q -> %q\n", p.Now(), req, resp)
		}
	})
	eng.Spawn("server", func(p *sim.Process) {
		for range requests {
			req := readFrame(p, server)
			writeFrame(server, "200 OK: "+req)
		}
	})
	eng.Run()

	fmt.Printf("\nserver stream: %d bytes in, %d partial-segment claims (IncEpoch)\n",
		server.BytesConsumed, server.EarlyClaims)
	fmt.Printf("client stream: %d bytes in, %d partial-segment claims\n",
		client.BytesConsumed, client.EarlyClaims)
	fmt.Println("no buffer negotiation, no registration keys — mailboxes only")
}
