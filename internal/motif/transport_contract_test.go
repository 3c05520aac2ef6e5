package motif

import (
	"testing"

	"rvma/internal/topology"
)

// Every waiting Transport method keeps the continuation contract: a true
// return means the wait is over and k never runs; a false return means k
// runs exactly once, later, never inside the call. Each row puts rank 0
// in one wait on a two-node cluster, with what it waits for either
// already done or still to come, and runs the cluster to the end.
func TestTransportContinuationContract(t *testing.T) {
	const size = 4096
	// prepared runs both ranks' Prepare of each other to completion.
	prepared := func(c *Cluster) {
		for me := 0; me < 2; me++ {
			c.Transports[me].Prepare([]int{1 - me}, []int{1 - me}, size, func() {})
		}
	}
	for _, tc := range []struct {
		name string
		// before runs, to quiescence, ahead of the call.
		before func(c *Cluster)
		// call makes rank 0's wait with continuation k.
		call func(c *Cluster, k func()) bool
		// after runs, as an event, once the call has returned.
		after func(c *Cluster)
		want  map[TransportKind]bool // the call's return on each transport
	}{
		{
			name:   "Recv/message already arrived",
			before: func(c *Cluster) { prepared(c); c.Transports[1].Send(0, size) },
			call:   func(c *Cluster, k func()) bool { return c.Transports[0].Recv(1, size, k) },
			// RDMA's host observes a completion only once its CQ entry
			// has crossed the bus, even for a message already in.
			want: map[TransportKind]bool{KindRVMA: true, KindRDMA: false},
		},
		{
			name:   "Recv/message arrives later",
			before: prepared,
			call:   func(c *Cluster, k func()) bool { return c.Transports[0].Recv(1, size, k) },
			after:  func(c *Cluster) { c.Transports[1].Send(0, size) },
			want:   map[TransportKind]bool{KindRVMA: false, KindRDMA: false},
		},
		{
			name:   "WaitSent/message already sent",
			before: func(c *Cluster) { prepared(c); c.Transports[0].Send(1, size) },
			call:   func(c *Cluster, k func()) bool { return c.Transports[0].WaitSent(1, k) },
			after:  func(c *Cluster) { c.Transports[1].Recv(0, size, func() {}) },
			want:   map[TransportKind]bool{KindRVMA: true, KindRDMA: true},
		},
		{
			name:   "WaitSent/message sends later",
			before: prepared,
			call: func(c *Cluster, k func()) bool {
				c.Transports[0].Send(1, size)
				return c.Transports[0].WaitSent(1, k)
			},
			after: func(c *Cluster) { c.Transports[1].Recv(0, size, func() {}) },
			want:  map[TransportKind]bool{KindRVMA: false, KindRDMA: false},
		},
		{
			name:   "Prepare/peers already set up",
			before: prepared,
			call: func(c *Cluster, k func()) bool {
				return c.Transports[0].Prepare([]int{1}, []int{1}, size, k)
			},
			want: map[TransportKind]bool{KindRVMA: true, KindRDMA: true},
		},
		{
			name: "Prepare/setup completes later",
			call: func(c *Cluster, k func()) bool {
				return c.Transports[0].Prepare([]int{1}, []int{1}, size, k)
			},
			// RVMA senders need no setup; an RDMA out-neighbor needs its
			// Figure 1 handshake.
			want: map[TransportKind]bool{KindRVMA: true, KindRDMA: false},
		},
	} {
		for _, kind := range []TransportKind{KindRVMA, KindRDMA} {
			t.Run(tc.name+"/"+kind.String(), func(t *testing.T) {
				c, err := NewCluster(DefaultClusterConfig(topology.NewSingleSwitch(2), kind))
				if err != nil {
					t.Fatal(err)
				}
				if tc.before != nil {
					c.TagFor(0).Schedule(0, func() { tc.before(c) })
					c.Group.Run()
				}
				calls, inCall, got := 0, false, false
				k := func() {
					if inCall {
						t.Error("k ran inside the call")
					}
					calls++
				}
				c.TagFor(0).Schedule(0, func() {
					inCall = true
					got = tc.call(c, k)
					inCall = false
					if tc.after != nil {
						c.TagFor(1).Schedule(0, func() { tc.after(c) })
					}
				})
				c.Run()
				if want := tc.want[kind]; got != want {
					t.Errorf("returned %v, want %v", got, want)
				}
				if want := map[bool]int{true: 0, false: 1}[got]; calls != want {
					t.Errorf("returned %v and k ran %d times, want %d", got, calls, want)
				}
			})
		}
	}
}
