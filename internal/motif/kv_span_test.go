package motif

import (
	"testing"

	"rvma/internal/attrib"
	"rvma/internal/metrics"
	"rvma/internal/recovery"
	"rvma/internal/topology"
)

// TestKVExhaustedOpsCloseSpans is the KV-side span-hygiene check for the
// exhaustion path: a drop rate a one-retry budget cannot beat kills part
// of the keyed-mailbox dataplane, but every span the recovery layer gave
// up on must still end exactly once — the retry storm may abandon ops,
// never leak them.
func TestKVExhaustedOpsCloseSpans(t *testing.T) {
	for _, kind := range []TransportKind{KindRVMA, KindRDMA} {
		t.Run(kind.String(), func(t *testing.T) {
			topo, err := topology.ForNodeCount(topology.KindDragonfly, 16)
			if err != nil {
				t.Fatal(err)
			}
			cfg := lossyClusterConfig(kind, 0.25, true)
			cfg.Topology = topo
			rc := recovery.DefaultConfig()
			rc.MaxRetries = 1
			cfg.Recovery = &rc
			c, err := NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			reg := metrics.NewRegistry()
			reg.EnableSpans()
			c.AttachShardMetrics(reg)
			col := attrib.NewCollector(8)
			c.AttachAttribution(reg, col)

			kcfg := DefaultKVConfig(topo.NumNodes())
			kcfg.Seed = cfg.Seed
			kcfg.OpsPerProxy = 24
			_, _, runErr := RunKV(c, kcfg)
			if runErr == nil {
				t.Skip("run survived the tight budget; no exhaustion to check")
			}
			if c.RecoveryStats().Exhausted == 0 {
				t.Skip("deadlock without exhaustion; nothing abandoned")
			}
			if open := reg.OpenSpans(); open != 0 {
				t.Errorf("deadlocked KV run leaked %d open spans", open)
			}
			if open := col.Open(); open != 0 {
				t.Errorf("collector holds %d messages still in flight", open)
			}
			if v := col.Violations(); v != 0 {
				t.Errorf("stage-conservation violations: %d", v)
			}
			var abandoned uint64
			for _, scope := range col.Scopes() {
				abandoned += col.Summary(scope).Abandoned
			}
			// RVMA recovery ops are spanned puts, so exhaustion must show
			// up as abandoned spans; RDMA's unspanned sends may legitimately
			// exhaust without an abandoned span (see TestAbandonedSpansClose).
			if kind == KindRVMA && abandoned == 0 {
				t.Error("ops exhausted their budget but no span ended abandoned")
			}
		})
	}
}
