package motif

import (
	"testing"

	"rvma/internal/attrib"
	"rvma/internal/metrics"
)

// attribCluster builds a lossy (or lossless) recovery cluster with spans
// and the attribution collector attached.
func attribCluster(t *testing.T, kind TransportKind, drop float64) (*Cluster, *metrics.Registry, *attrib.Collector) {
	t.Helper()
	var cfg ClusterConfig
	if drop > 0 {
		cfg = lossyClusterConfig(kind, drop, true)
	} else {
		cfg = lossyClusterConfig(kind, 0, true)
		cfg.Faults = nil
	}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	reg.EnableSpans()
	c.AttachShardMetrics(reg)
	col := attrib.NewCollector(8)
	c.AttachAttribution(reg, col)
	return c, reg, col
}

// TestSpanLifecycleUnderFaults is the span-hygiene acceptance check: with
// a FaultPlan active and the recovery layer retransmitting, every span that
// starts ends exactly once — completed, nacked or abandoned — so the
// in-flight table drains and stage conservation holds for every message.
// Under -tags simdebug the same invariants are additionally hard asserts
// inside the span and attribution layers.
func TestSpanLifecycleUnderFaults(t *testing.T) {
	for _, kind := range []TransportKind{KindRVMA, KindRDMA} {
		t.Run(kind.String(), func(t *testing.T) {
			c, reg, col := attribCluster(t, kind, 0.05)
			if _, err := RunIncast(c, DefaultIncastConfig()); err != nil {
				t.Fatal(err)
			}
			if open := reg.OpenSpans(); open != 0 {
				t.Errorf("registry has %d spans still open", open)
			}
			if open := col.Open(); open != 0 {
				t.Errorf("collector has %d messages still in flight", open)
			}
			if v := col.Violations(); v != 0 {
				t.Errorf("stage-conservation violations: %d", v)
			}
			for _, scope := range col.Scopes() {
				s := col.Summary(scope)
				if ended := s.Completed + s.Nacked + s.Abandoned; ended != s.Messages {
					t.Errorf("%s: %d messages but %d endings (%d completed, %d nacked, %d abandoned)",
						scope, s.Messages, ended, s.Completed, s.Nacked, s.Abandoned)
				}
				if s.Messages == 0 {
					t.Errorf("%s: no messages attributed", scope)
				}
			}
			// The recovery layer retransmitted (5% drop guarantees it), and
			// those retransmits must ride their original spans as extra
			// attempts, not orphan or duplicate them.
			if c.RecoveryStats().Retransmits == 0 {
				t.Fatal("no retransmits at 5% drop — faults not active?")
			}
			var retried uint64
			for _, scope := range col.Scopes() {
				retried += col.Summary(scope).Retried
			}
			if retried == 0 {
				t.Error("retransmits happened but no message shows more than one attempt")
			}
		})
	}
}

// TestSpanLifecycleLossless pins the no-fault baseline: every span
// completes (nothing nacked or abandoned, nothing retried) and
// conservation still holds.
func TestSpanLifecycleLossless(t *testing.T) {
	for _, kind := range []TransportKind{KindRVMA, KindRDMA} {
		t.Run(kind.String(), func(t *testing.T) {
			c, reg, col := attribCluster(t, kind, 0)
			if _, err := RunIncast(c, DefaultIncastConfig()); err != nil {
				t.Fatal(err)
			}
			if open := reg.OpenSpans(); open != 0 {
				t.Errorf("registry has %d spans still open", open)
			}
			if v := col.Violations(); v != 0 {
				t.Errorf("stage-conservation violations: %d", v)
			}
			for _, scope := range col.Scopes() {
				s := col.Summary(scope)
				if s.Completed != s.Messages || s.Retried != 0 {
					t.Errorf("%s: lossless run shows %d/%d completed, %d retried",
						scope, s.Completed, s.Messages, s.Retried)
				}
			}
		})
	}
}

// TestAbandonedSpansClose exercises the exhaustion path: a drop rate the
// one-retry budget cannot beat deadlocks the collective, but every span
// the recovery layer gave up on must still close as abandoned — the
// attribution layer never leaks spans for ops that died.
func TestAbandonedSpansClose(t *testing.T) {
	for _, kind := range []TransportKind{KindRVMA, KindRDMA} {
		t.Run(kind.String(), func(t *testing.T) {
			cfg := lossyClusterConfig(kind, 0.25, true)
			cfg.Recovery.MaxRetries = 1
			c, err := NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			reg := metrics.NewRegistry()
			reg.EnableSpans()
			c.AttachShardMetrics(reg)
			col := attrib.NewCollector(8)
			c.AttachAttribution(reg, col)
			if _, err := RunIncast(c, DefaultIncastConfig()); err == nil {
				t.Skip("run survived the tight budget; no exhaustion to check")
			}
			if c.RecoveryStats().Exhausted == 0 {
				t.Skip("deadlock without exhaustion; nothing abandoned")
			}
			if v := col.Violations(); v != 0 {
				t.Errorf("stage-conservation violations: %d", v)
			}
			// Even in a run that died, no span may leak: everything that
			// started ended exactly once (completed, nacked or abandoned).
			if open := reg.OpenSpans(); open != 0 {
				t.Errorf("deadlocked run leaked %d open spans", open)
			}
			if open := col.Open(); open != 0 {
				t.Errorf("collector holds %d messages still in flight", open)
			}
			var abandoned uint64
			for _, scope := range col.Scopes() {
				abandoned += col.Summary(scope).Abandoned
			}
			// Every RVMA recovery op is a spanned put, so exhaustion there
			// must surface as abandoned spans. RDMA also recovers unspanned
			// sends (and an exhausted put whose data actually placed ends
			// completed), so its abandoned count may legitimately be zero.
			if kind == KindRVMA && abandoned == 0 {
				t.Error("ops exhausted their budget but no span ended abandoned")
			}
		})
	}
}
