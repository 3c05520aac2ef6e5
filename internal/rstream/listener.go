package rstream

import (
	"encoding/binary"
	"fmt"

	"rvma/internal/rvma"
	"rvma/internal/sim"
)

// Connection establishment over bare mailboxes. A server Listens on a
// port — a well-known mailbox — and clients Dial it:
//
//  1. the client picks a globally unique connection id, opens its receive
//     window and an accept-notification window, and puts a 16-byte
//     connect request (client node, conn id) to the server's listen
//     mailbox;
//  2. the listener's completion handler opens the server-side receive
//     window and puts an 8-byte accept notification back;
//  3. the client's Dial future resolves when the notification window
//     completes.
//
// No physical addresses, registration keys, or per-client negotiated
// buffers appear anywhere — the many-to-one resource property the paper's
// abstract highlights. The listen mailbox itself is an ordinary RVMA
// window with an 16-byte threshold and a repost loop.

// mailbox-space layout for connection establishment.
const (
	listenBase rvma.VAddr = 0x11_0000_0000_0000
	acceptBase rvma.VAddr = 0x22_0000_0000_0000
)

// Listener accepts stream connections on a port.
type Listener struct {
	ep   *rvma.Endpoint
	port uint64
	cfg  Config
	win  *rvma.Window

	ready   []*Conn
	waiters []*sim.Future
	closed  bool
}

// Listen opens a listener on (ep's node, port).
func Listen(ep *rvma.Endpoint, port uint64, cfg Config) (*Listener, error) {
	if err := RequireOrdered(ep.NIC().Network().Config().Routing); err != nil {
		return nil, err
	}
	if cfg.SegmentBytes == 0 {
		cfg.SegmentBytes = 8 * 1024
	}
	if cfg.Depth == 0 {
		cfg.Depth = 4
	}
	win, err := ep.InitWindow(listenBase|rvma.VAddr(port), 16, rvma.EpochBytes)
	if err != nil {
		return nil, err
	}
	l := &Listener{ep: ep, port: port, cfg: cfg, win: win}
	for i := 0; i < 8; i++ {
		if _, err := win.PostBuffer(16); err != nil {
			return nil, err
		}
	}
	win.SetCompletionHandler(func(buf *rvma.Buffer) {
		if l.closed {
			return
		}
		if _, err := win.PostBuffer(16); err != nil {
			panic(err)
		}
		req := ep.Memory().Read(buf.Region.Base, 16)
		if err := win.Release(buf); err != nil {
			panic(err)
		}
		clientNode := int(binary.LittleEndian.Uint64(req[0:8]))
		connID := binary.LittleEndian.Uint64(req[8:16])
		l.handleConnect(clientNode, connID)
	})
	return l, nil
}

// handleConnect opens the server-side conn and notifies the client.
func (l *Listener) handleConnect(clientNode int, connID uint64) {
	serverConn, err := newConn(l.ep, clientNode,
		streamMbox(connID, false), // server sends on the b->a direction
		streamMbox(connID, true),  // and receives the a->b direction
		l.cfg)
	if err != nil {
		// Duplicate or exhausted id: drop the request; the client's Dial
		// never resolves, like an unanswered SYN.
		return
	}
	var ok [8]byte
	binary.LittleEndian.PutUint64(ok[:], connID)
	l.ep.Put(clientNode, acceptBase|rvma.VAddr(connID), 0, ok[:])

	if len(l.waiters) > 0 {
		w := l.waiters[0]
		l.waiters = l.waiters[1:]
		w.Complete(l.ep.Engine(), serverConn)
		return
	}
	l.ready = append(l.ready, serverConn)
}

// Accept resolves with the next established *Conn.
func (l *Listener) Accept() *sim.Future {
	f := sim.NewFuture()
	if l.closed {
		f.Complete(l.ep.Engine(), nil)
		return f
	}
	if len(l.ready) > 0 {
		c := l.ready[0]
		l.ready = l.ready[1:]
		f.Complete(l.ep.Engine(), c)
		return f
	}
	l.waiters = append(l.waiters, f)
	return f
}

// Close stops accepting; connect requests to the port are NACKed.
func (l *Listener) Close() {
	if l.closed {
		return
	}
	l.closed = true
	l.win.Close()
	for _, w := range l.waiters {
		if !w.Done() {
			w.Complete(l.ep.Engine(), nil)
		}
	}
	l.waiters = nil
}

// streamMbox derives the two per-connection stream mailboxes.
func streamMbox(connID uint64, clientToServer bool) rvma.VAddr {
	m := rvma.VAddr(0x57_0000_0000_0000) | rvma.VAddr(connID<<1)
	if !clientToServer {
		m |= 1
	}
	return m
}

// connIDs allocates unique connection ids per endpoint.
var connSeq uint64

// Dial connects ep to a listener at (serverNode, port). The returned
// future resolves with the client-side *Conn once the listener accepted.
// Both sides must use the same Config geometry.
func Dial(ep *rvma.Endpoint, serverNode int, port uint64, cfg Config) (*sim.Future, error) {
	if err := RequireOrdered(ep.NIC().Network().Config().Routing); err != nil {
		return nil, err
	}
	if cfg.SegmentBytes == 0 {
		cfg.SegmentBytes = 8 * 1024
	}
	if cfg.Depth == 0 {
		cfg.Depth = 4
	}
	connSeq++
	connID := uint64(ep.Node())<<24 | connSeq

	// Client side of the stream, receiving the server->client direction.
	clientConn, err := newConn(ep, serverNode,
		streamMbox(connID, true),
		streamMbox(connID, false),
		cfg)
	if err != nil {
		return nil, err
	}

	// Accept-notification window: one 8-byte completion.
	acceptWin, err := ep.InitWindow(acceptBase|rvma.VAddr(connID), 8, rvma.EpochBytes)
	if err != nil {
		return nil, err
	}
	if _, err := acceptWin.PostBuffer(8); err != nil {
		return nil, err
	}

	f := sim.NewFuture()
	eng := ep.Engine()
	acceptWin.NextCompletion().OnComplete(func() {
		acceptWin.Close()
		f.Complete(eng, clientConn)
	})

	var req [16]byte
	binary.LittleEndian.PutUint64(req[0:8], uint64(ep.Node()))
	binary.LittleEndian.PutUint64(req[8:16], connID)
	op := ep.Put(serverNode, listenBase|rvma.VAddr(port), 0, req[:])
	op.Nack.OnComplete(func() {
		if !f.Done() {
			f.Complete(eng, fmt.Errorf("rstream: connection refused by node %d port %d", serverNode, port))
		}
	})
	return f, nil
}
