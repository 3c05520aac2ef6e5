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

var requests = []string{"GET /status", "GET /metrics", "POST /rewind?epoch=3"}

// peer is one end of the service: it reads one length-prefixed frame per
// request and hands each to handle. A frame takes two waits (the 4-byte
// prefix, then the body), so a peer is a step record: step runs it from
// one wait to the next.
type peer struct {
	conn   *rstream.Conn
	frames int         // frames handled
	read   *sim.Future // the Read in flight
	body   bool        // read is a frame's body, not its prefix
	handle func(frame int, s string)
}

func (p *peer) step() {
	for p.frames < len(requests) {
		if p.read == nil {
			p.read, p.body = mustRead(p.conn, 4), false
		}
		if !p.read.Done() {
			p.read.OnComplete(p.step)
			return
		}
		b := p.read.Value().([]byte)
		p.read = nil
		if !p.body {
			p.read, p.body = mustRead(p.conn, int(binary.LittleEndian.Uint32(b))), true
		} else {
			p.handle(p.frames, string(b))
			p.frames++
		}
	}
}

func mustRead(c *rstream.Conn, n int) *sim.Future {
	f, err := c.Read(n)
	if err != nil {
		log.Fatal(err)
	}
	return f
}

// writeFrame writes s with its 4-byte length prefix.
func writeFrame(c *rstream.Conn, s string) {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(s)))
	if _, err := c.Write(append(hdr[:], s...)); err != nil {
		log.Fatal(err)
	}
}

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

	// The client sends the first request, and each response it reads the
	// next; the server answers each request it reads.
	c := &peer{conn: client, handle: func(i int, resp string) {
		fmt.Printf("[%v] client: %q -> %q\n", eng.Now(), requests[i], resp)
		if i+1 < len(requests) {
			writeFrame(client, requests[i+1])
		}
	}}
	srv := &peer{conn: server, handle: func(_ int, req string) { writeFrame(server, "200 OK: "+req) }}
	eng.Schedule(0, func() {
		writeFrame(client, requests[0])
		c.step()
	})
	eng.Schedule(0, srv.step)
	eng.Run()

	fmt.Printf("\nserver stream: %d bytes in, %d partial-segment claims (IncEpoch)\n",
		server.BytesConsumed, server.EarlyClaims)
	fmt.Printf("client stream: %d bytes in, %d partial-segment claims\n",
		client.BytesConsumed, client.EarlyClaims)
	fmt.Println("no buffer negotiation, no registration keys — mailboxes only")
}
