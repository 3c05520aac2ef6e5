package ledger

// RunSpec captures everything needed to rebuild and replay the run a
// ledger was recorded from — strings and numbers only, so it survives a
// round trip through the ledger file. The harness fills it when writing
// per-cell ledgers; cmd/simdiff hands it back to the harness's replay
// entry point when a divergence needs a full-resolution window.
type RunSpec struct {
	// Motif is the workload name: "sweep3d", "halo3d" or "incast".
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
	// Drop is the fault-injection drop rate (0 = lossless).
	Drop float64 `json:"drop,omitempty"`
	// Recover enables the recovery layer.
	Recover bool `json:"recover,omitempty"`
	// RetryBudget overrides the recovery retry budget when > 0.
	RetryBudget int `json:"retry_budget,omitempty"`
	// KV parameters (set only when Motif is "kv"): the resolved workload
	// knobs of the KV dataplane cell. The harness embeds the values the
	// run actually used — not the CLI defaults — so a replay rebuilds the
	// identical proxy plans. KVSkew and KVGapNs are meaningful at zero
	// (uniform keys / no pacing) and are always applied on replay when
	// Motif is "kv"; the remaining fields fall back to the motif defaults
	// when zero.
	KVSkew    float64 `json:"kv_skew,omitempty"`
	KVGapNs   float64 `json:"kv_gap_ns,omitempty"`
	KVOps     int     `json:"kv_ops,omitempty"`
	KVServers int     `json:"kv_servers,omitempty"`
	KVClients int     `json:"kv_clients,omitempty"`
	KVKeys    int     `json:"kv_keys,omitempty"`
	KVWindow  int     `json:"kv_window,omitempty"`
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
