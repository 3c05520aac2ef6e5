package ledger

// RunSpec describes one motif cell: everything needed to build, run and
// replay it, in strings and numbers only, so it survives a round trip
// through the ledger file. It is the one description of a cell: the
// harness's figure sweeps and rvmasim (single runs and -seeds replicas)
// fill it and run it through the harness's one cell builder, which embeds
// it in the ledgers they write; cmd/simdiff hands it back to the same
// builder when a divergence needs a full-resolution replay window. Zero
// model knobs mean the motif.DefaultClusterConfig values, so ledgers
// written before a knob existed still replay.
type RunSpec struct {
	// Motif is the workload name, one of harness.MotifNames().
	Motif string `json:"motif"`
	// Transport is "rvma" or "rdma".
	Transport string `json:"transport"`
	// Topology is the topology kind ("dragonfly", "fattree", ...).
	Topology string `json:"topology"`
	// Routing is the routing mode ("static", "adaptive", "valiant").
	Routing string `json:"routing"`
	// Network is the display name of the network config ("dragonfly/adaptive").
	Network string `json:"network"`
	// Nodes is the requested node count (topology rounding may exceed it,
	// exactly as in the original run).
	Nodes int `json:"nodes"`
	// Gbps is the link speed.
	Gbps float64 `json:"gbps"`
	// Seed is the engine RNG seed.
	Seed uint64 `json:"seed"`
	// RDMABuffers is the RDMA transport's negotiated buffers per pair
	// (0 = the default, 1).
	RDMABuffers int `json:"rdma_buffers,omitempty"`
	// RVMADepth is the RVMA transport's posted buffer depth per mailbox
	// (0 = the default, 4).
	RVMADepth int `json:"rvma_depth,omitempty"`
	// FaultPlan is a fabric.ParseFaultPlan spec ("drop=RATE,burst=N,
	// window=NODE:FROM:TO:RATE"); empty means no plan.
	FaultPlan string `json:"fault_plan,omitempty"`
	// Drop is a uniform drop rate layered on top of FaultPlan, or standing
	// alone when FaultPlan is empty (0 = lossless).
	Drop float64 `json:"drop,omitempty"`
	// Recover enables the recovery layer.
	Recover bool `json:"recover,omitempty"`
	// RetryBudget overrides the recovery retry budget when > 0.
	RetryBudget int `json:"retry_budget,omitempty"`
	// KV parameters (set only when Motif is "kv"): the workload knobs of
	// the KV dataplane cell. KVSkew is literal (0 is a uniform keyspace);
	// every other field falls back to the motif default when zero.
	KVSkew    float64 `json:"kv_skew,omitempty"`
	KVGapNs   float64 `json:"kv_gap_ns,omitempty"`
	KVOps     int     `json:"kv_ops,omitempty"`
	KVServers int     `json:"kv_servers,omitempty"`
	KVClients int     `json:"kv_clients,omitempty"`
	KVKeys    int     `json:"kv_keys,omitempty"`
	KVWindow  int     `json:"kv_window,omitempty"`
	// Host names a §V-A testbed ("verbs" or "ucx") whose NIC, fabric and
	// RDMA fence discipline replace the defaults. HostScale multiplies its
	// host costs: one run's draw of run-to-run noise (0 = unscaled).
	Host      string  `json:"host,omitempty"`
	HostScale float64 `json:"host_scale,omitempty"`
	// Size and Iters are the pingpong motif's message bytes and round
	// trips (setup uses Size alone); zero keeps 64 bytes and 200.
	Size  int `json:"size,omitempty"`
	Iters int `json:"iters,omitempty"`
	// Notify is how RVMA hosts observe completions: "mwait" (empty) or "poll".
	Notify string `json:"notify,omitempty"`
	// LastByte lets RDMA poll the last byte on byte-ordered routings.
	LastByte bool `json:"last_byte,omitempty"`
	// Shards is the engine partition count the run used; values below 1
	// mean 1. The canonical chain is the same at any shard count, so a
	// replay may use any count; it uses the recorded one.
	Shards int `json:"shards,omitempty"`
	// UnsafeLookaheadScale, when != 0 and != 1, records that the run
	// deliberately broke conservative synchronization by scaling the shard
	// lookahead (the CI divergence canary). Replays apply the same scale so
	// the broken run reproduces and simdiff can pin its first divergent
	// event.
	UnsafeLookaheadScale float64 `json:"unsafe_lookahead_scale,omitempty"`
}
