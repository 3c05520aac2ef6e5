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
	job, err := startIncast(c, cfg)
	if err != nil {
		return 0, err
	}
	c.Run()
	if !job.fin.AllDone() {
		return 0, fmt.Errorf("incast: %w", ErrDeadlock)
	}
	return job.fin.FinishTime(), nil
}

// startIncast makes the motif's ranks and schedules their first steps.
func startIncast(c *Cluster, cfg IncastConfig) (*incastJob, error) {
	ranks := len(c.Transports)
	if ranks < 2 {
		return nil, fmt.Errorf("incast: need at least 2 ranks")
	}
	if cfg.Messages <= 0 || cfg.MsgBytes <= 0 {
		return nil, fmt.Errorf("incast: non-positive parameter")
	}
	job := &incastJob{cfg: cfg, fin: NewFinishLine(ranks), clients: make([]int, 0, ranks-1)}
	for r := 1; r < ranks; r++ {
		job.clients = append(job.clients, r)
	}
	srv := &incastServer{job: job, tp: c.Transports[0], tag: c.TagFor(0)}
	srv.wake = srv.step
	srv.tag.Schedule(0, srv.wake)
	cls := make([]incastClient, len(job.clients))
	for i, rank := range job.clients {
		r := &cls[i]
		r.job, r.tp, r.tag, r.rank = job, c.Transports[rank], c.TagFor(rank), rank
		r.wake = r.step
		r.tag.Schedule(0, r.wake)
	}
	return job, nil
}

// incastJob is what every rank of one RunIncast call shares.
type incastJob struct {
	cfg     IncastConfig
	fin     *FinishLine
	clients []int // every rank but the server, in rank order
}

type incastPhase uint8

const (
	incastPrepare incastPhase = iota
	incastMessage             // receive or send message r.msg
)

// incastServer is rank 0: it consumes the messages round-robin across
// clients. Per-pair FIFO makes this deterministic regardless of
// cross-client arrival order.
type incastServer struct {
	guard sim.StepGuard
	job   *incastJob
	tp    Transport
	tag   sim.Tagged
	wake  func() // r.step
	phase incastPhase
	msg   int
	next  int // index in clients of the next sender
}

// step runs the server up to its next wait.
//
//rvmalint:hot
func (r *incastServer) step() {
	if sim.DebugEnabled {
		r.guard.Enter("incast-server")
		defer r.guard.Leave()
	}
	job := r.job
	for {
		switch r.phase {
		case incastPrepare:
			r.phase = incastMessage
			if !r.tp.Prepare(job.clients, nil, job.cfg.MsgBytes, r.wake) {
				return
			}
		case incastMessage:
			if r.msg == job.cfg.Messages {
				job.fin.Arrive(0, r.tag.Now())
				return
			}
			cl := job.clients[r.next]
			if r.next++; r.next == len(job.clients) {
				r.next = 0
				r.msg++
			}
			if !r.tp.Recv(cl, job.cfg.MsgBytes, r.wake) {
				return
			}
		}
	}
}

// server0 is every client's only out-peer; Prepare only reads it.
var server0 = []int{0}

// incastClient sends its messages to rank 0 one at a time, each once the
// previous one has completed locally.
type incastClient struct {
	guard sim.StepGuard
	job   *incastJob
	tp    Transport
	tag   sim.Tagged
	wake  func() // r.step
	rank  int
	phase incastPhase
	msg   int
}

// step runs the client up to its next wait.
//
//rvmalint:hot
func (r *incastClient) step() {
	if sim.DebugEnabled {
		r.guard.Enter("incast-client")
		defer r.guard.Leave()
	}
	job := r.job
	for {
		switch r.phase {
		case incastPrepare:
			r.phase = incastMessage
			if !r.tp.Prepare(nil, server0, job.cfg.MsgBytes, r.wake) {
				return
			}
		case incastMessage:
			if r.msg == job.cfg.Messages {
				job.fin.Arrive(r.rank, r.tag.Now())
				return
			}
			r.tp.Send(0, job.cfg.MsgBytes)
			r.msg++
			if !r.tp.WaitSent(0, r.wake) {
				return
			}
		}
	}
}
