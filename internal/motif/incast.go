package motif

import (
	"fmt"

	"rvma/internal/sim"
)

// IncastConfig parameterizes the many-to-one motif: every rank except the
// server streams Messages messages of MsgBytes to rank 0. This is the
// "many-to-one communication models such as those found in public
// internet client-server situations" the paper's abstract motivates:
// RDMA needs a dedicated negotiated buffer per client held for unbounded
// time, while an RVMA server steers all clients into receiver-managed
// mailboxes.
type IncastConfig struct {
	Messages int
	MsgBytes int
}

// DefaultIncastConfig returns a modest client burst.
func DefaultIncastConfig() IncastConfig {
	return IncastConfig{Messages: 8, MsgBytes: 4096}
}

// RunIncast executes the motif and returns the simulated makespan (server
// consumed every message).
func RunIncast(c *Cluster, cfg IncastConfig) (sim.Time, error) {
	ranks := len(c.Transports)
	if ranks < 2 {
		return 0, fmt.Errorf("incast: need at least 2 ranks")
	}
	if cfg.Messages <= 0 || cfg.MsgBytes <= 0 {
		return 0, fmt.Errorf("incast: non-positive parameter")
	}

	fin := NewFinishLine(ranks)

	server := c.Transports[0]
	clients := make([]int, 0, ranks-1)
	for r := 1; r < ranks; r++ {
		clients = append(clients, r)
	}
	srvTag := c.TagFor(0)
	srvTag.Spawn("incast-server", func(p *sim.Process) {
		p.Wait(server.Prepare(clients, nil, cfg.MsgBytes))
		// Consume messages round-robin across clients; per-pair FIFO makes
		// this deterministic regardless of cross-client arrival order.
		for m := 0; m < cfg.Messages; m++ {
			for _, cl := range clients {
				server.Recv(p, cl, cfg.MsgBytes)
			}
		}
		fin.Arrive(0, srvTag.Now())
	})
	server0 := []int{0} // every client's only out-peer; Prepare only reads it
	for _, cl := range clients {
		tp := c.Transports[cl]
		tag := c.TagFor(cl)
		tag.Spawn("incast-client", func(p *sim.Process) {
			p.Wait(tp.Prepare(nil, server0, cfg.MsgBytes))
			for m := 0; m < cfg.Messages; m++ {
				tp.Send(0, cfg.MsgBytes)
				tp.WaitSent(p, 0)
			}
			fin.Arrive(cl, tag.Now())
		})
	}
	c.Run()
	if !fin.AllDone() {
		return 0, fmt.Errorf("incast: %w", ErrDeadlock)
	}
	return fin.FinishTime(), nil
}
