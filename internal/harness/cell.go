package harness

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"rvma/internal/attrib"
	"rvma/internal/collective"
	"rvma/internal/fabric"
	"rvma/internal/hostif"
	"rvma/internal/ledger"
	"rvma/internal/metrics"
	"rvma/internal/motif"
	"rvma/internal/recovery"
	"rvma/internal/rvma"
	"rvma/internal/sim"
	"rvma/internal/telemetry"
	"rvma/internal/topology"
)

// This file is the one path from a run description to a run. Every motif
// cell — a figure, fault or KV sweep cell, an rvmasim run or -seeds
// replica, a simdiff replay — is a ledger.RunSpec, and RunCell validates
// it, builds its topology and cluster, attaches the observers the caller
// asked for and runs the motif.

// MotifName selects a workload: the RunSpec Motif values.
type MotifName string

// Motifs runnable through the harness. The collectives are motifs too,
// named by their collective.Op.
const (
	MotifSweep3D  MotifName = "sweep3d"
	MotifHalo3D   MotifName = "halo3d"
	MotifIncast   MotifName = "incast"
	MotifKV       MotifName = "kv"
	MotifPingPong MotifName = "pingpong"
	MotifSetup    MotifName = "setup"
)

// motifRun runs one motif on a built cluster of ranks ranks. The KV result
// is nil for every motif but kv.
type motifRun func(c *motif.Cluster, rs ledger.RunSpec, ranks int) (sim.Time, *motif.KVResult, error)

var motifRuns = map[MotifName]motifRun{
	MotifSweep3D: func(c *motif.Cluster, _ ledger.RunSpec, ranks int) (sim.Time, *motif.KVResult, error) {
		t, err := motif.RunSweep3D(c, motif.DefaultSweep3DConfig(ranks))
		return t, nil, err
	},
	MotifHalo3D: func(c *motif.Cluster, _ ledger.RunSpec, ranks int) (sim.Time, *motif.KVResult, error) {
		t, err := motif.RunHalo3D(c, motif.DefaultHalo3DConfig(ranks))
		return t, nil, err
	},
	MotifIncast: func(c *motif.Cluster, _ ledger.RunSpec, _ int) (sim.Time, *motif.KVResult, error) {
		t, err := motif.RunIncast(c, motif.DefaultIncastConfig())
		return t, nil, err
	},
	MotifKV: func(c *motif.Cluster, rs ledger.RunSpec, ranks int) (sim.Time, *motif.KVResult, error) {
		return motif.RunKV(c, kvConfig(rs, ranks))
	},
	MotifPingPong: func(c *motif.Cluster, rs ledger.RunSpec, _ int) (sim.Time, *motif.KVResult, error) {
		t, err := motif.RunPingPong(c, pingPongSize(rs), pingPongIters(rs))
		return t, nil, err
	},
	MotifSetup: func(c *motif.Cluster, rs ledger.RunSpec, _ int) (sim.Time, *motif.KVResult, error) {
		t, err := motif.RunSetup(c, pingPongSize(rs))
		return t, nil, err
	},
	MotifName(collective.OpBarrier):   runCollective(collective.OpBarrier),
	MotifName(collective.OpAllreduce): runCollective(collective.OpAllreduce),
	MotifName(collective.OpBroadcast): runCollective(collective.OpBroadcast),
	MotifName(collective.OpAllgather): runCollective(collective.OpAllgather),
}

// runCollective is the motifRun of one collective operation.
func runCollective(op collective.Op) motifRun {
	return func(c *motif.Cluster, _ ledger.RunSpec, _ int) (sim.Time, *motif.KVResult, error) {
		t, err := collective.RunCollective(c, collective.DefaultConfig(op))
		return t, nil, err
	}
}

var (
	transports = map[string]motif.TransportKind{"rvma": motif.KindRVMA, "rdma": motif.KindRDMA}
	routings   = map[string]fabric.RoutingMode{
		"static": fabric.RouteStatic, "adaptive": fabric.RouteAdaptive, "valiant": fabric.RouteValiant,
	}
	hosts    = map[string]func() hostif.Profile{"verbs": hostif.Verbs, "ucx": hostif.UCX}
	notifies = map[string]rvma.NotifyMode{"mwait": rvma.NotifyMWait, "poll": rvma.NotifyPoll}
)

// names lists a name table's keys, sorted, for messages and help text.
func names[K ~string, V any](m map[K]V) string {
	var ns []string
	for k := range m {
		ns = append(ns, string(k))
	}
	slices.Sort(ns)
	return strings.Join(ns, ", ")
}

// MotifNames lists the motifs RunCell runs, sorted and comma-separated.
func MotifNames() string { return names(motifRuns) }

// SpecError reports a RunSpec field that fails validation. Field is the
// field's JSON name in a ledger file.
type SpecError struct {
	Field string
	Msg   string
}

func (e *SpecError) Error() string { return fmt.Sprintf("harness: run spec %s %s", e.Field, e.Msg) }

// checkSpec rejects a spec the builder cannot run, before anything is
// built, and returns its fault plan (nil when lossless).
func checkSpec(rs ledger.RunSpec) (*fabric.FaultPlan, error) {
	_, motifOK := motifRuns[MotifName(rs.Motif)]
	_, transportOK := transports[rs.Transport]
	_, routingOK := routings[rs.Routing]
	_, hostOK := hosts[rs.Host]
	_, notifyOK := notifies[rs.Notify]
	for _, c := range []struct {
		bad   bool
		field string
		msg   string
	}{
		{!motifOK, "motif", fmt.Sprintf("%q is not one of %s", rs.Motif, MotifNames())},
		{!transportOK, "transport", fmt.Sprintf("%q is not one of %s", rs.Transport, names(transports))},
		{!slices.Contains(topology.Kinds(), topology.Kind(rs.Topology)), "topology", fmt.Sprintf("%q is not a topology kind", rs.Topology)},
		{!routingOK, "routing", fmt.Sprintf("%q is not one of %s", rs.Routing, names(routings))},
		{rs.Nodes < 1, "nodes", fmt.Sprintf("must be at least 1, got %d", rs.Nodes)},
		{!(rs.Gbps > 0), "gbps", fmt.Sprintf("must be positive, got %g", rs.Gbps)},
		{!(rs.Drop >= 0 && rs.Drop <= 1), "drop", fmt.Sprintf("must be in [0, 1], got %g", rs.Drop)},
		{rs.RetryBudget < 0, "retry_budget", fmt.Sprintf("must not be negative, got %d", rs.RetryBudget)},
		{rs.RDMABuffers < 0, "rdma_buffers", fmt.Sprintf("must not be negative, got %d", rs.RDMABuffers)},
		{rs.RVMADepth < 0, "rvma_depth", fmt.Sprintf("must not be negative, got %d", rs.RVMADepth)},
		{!(rs.UnsafeLookaheadScale >= 0), "unsafe_lookahead_scale", fmt.Sprintf("must not be negative, got %g", rs.UnsafeLookaheadScale)},
		{!(rs.KVSkew >= 0), "kv_skew", fmt.Sprintf("must not be negative, got %g", rs.KVSkew)},
		{!(rs.KVGapNs >= 0), "kv_gap_ns", fmt.Sprintf("must not be negative, got %g", rs.KVGapNs)},
		{rs.KVOps < 0, "kv_ops", fmt.Sprintf("must not be negative, got %d", rs.KVOps)},
		{rs.KVServers < 0, "kv_servers", fmt.Sprintf("must not be negative, got %d", rs.KVServers)},
		{rs.KVClients < 0, "kv_clients", fmt.Sprintf("must not be negative, got %d", rs.KVClients)},
		{rs.KVKeys < 0, "kv_keys", fmt.Sprintf("must not be negative, got %d", rs.KVKeys)},
		{rs.KVWindow < 0, "kv_window", fmt.Sprintf("must not be negative, got %d", rs.KVWindow)},
		{rs.Host != "" && !hostOK, "host", fmt.Sprintf("%q is not one of %s", rs.Host, names(hosts))},
		{!(rs.HostScale >= 0), "host_scale", fmt.Sprintf("must not be negative, got %g", rs.HostScale)},
		{rs.HostScale != 0 && rs.Host == "", "host_scale", "needs a host profile"},
		{rs.Size < 0, "size", fmt.Sprintf("must not be negative, got %d", rs.Size)},
		{rs.Iters < 0, "iters", fmt.Sprintf("must not be negative, got %d", rs.Iters)},
		{rs.Notify != "" && !notifyOK, "notify", fmt.Sprintf("%q is not one of %s", rs.Notify, names(notifies))},
	} {
		if c.bad {
			return nil, &SpecError{Field: c.field, Msg: c.msg}
		}
	}
	// The drop rate layers a uniform rate on top of the plan, or stands
	// alone as the common case.
	plan, err := fabric.ParseFaultPlan(rs.FaultPlan)
	if err == nil && rs.Drop > 0 {
		if plan == nil {
			plan = &fabric.FaultPlan{}
		}
		plan.DropRate = rs.Drop
	}
	if err == nil {
		err = plan.Validate()
	}
	if err != nil {
		return nil, &SpecError{Field: "fault_plan", Msg: err.Error()}
	}
	return plan, nil
}

// clusterConfig turns a checked spec into its cluster configuration: zero
// model knobs keep the DefaultClusterConfig values.
func clusterConfig(rs ledger.RunSpec, topo topology.Topology, plan *fabric.FaultPlan) motif.ClusterConfig {
	cfg := motif.DefaultClusterConfig(topo, transports[rs.Transport])
	cfg.Routing = routings[rs.Routing]
	cfg.Seed = rs.Seed
	cfg.Shards = rs.Shards
	if rs.Host != "" {
		prof := hosts[rs.Host]()
		if rs.HostScale > 0 {
			prof = prof.Scale(rs.HostScale)
		}
		cfg.NIC, cfg.Fabric, cfg.PipelinedFence = prof.NIC, prof.Fabric, prof.PipelinedFence
	}
	cfg.Notification = notifies[rs.Notify]
	cfg.RDMALastBytePoll = rs.LastByte
	cfg.ApplyLinkSpeed(rs.Gbps)
	if rs.RDMABuffers > 0 {
		cfg.RDMABuffers = rs.RDMABuffers
	}
	if rs.RVMADepth > 0 {
		cfg.RVMADepth = rs.RVMADepth
	}
	cfg.Faults = plan
	if rs.Recover {
		rc := recovery.DefaultConfig()
		if rs.RetryBudget > 0 {
			rc.MaxRetries = rs.RetryBudget
		}
		cfg.Recovery = &rc
	}
	return cfg
}

// kvConfig resolves a kv spec's workload knobs for the built rank count:
// KVSkew is literal (0 is a uniform keyspace), and every other zero knob
// keeps the motif.DefaultKVConfig value.
func kvConfig(rs ledger.RunSpec, ranks int) motif.KVConfig {
	cfg := motif.DefaultKVConfig(ranks)
	cfg.Seed = rs.Seed
	cfg.Skew = rs.KVSkew
	if rs.KVGapNs > 0 {
		cfg.Gap = sim.FromNanos(rs.KVGapNs)
	}
	for _, k := range []struct {
		dst *int
		v   int
	}{
		{&cfg.OpsPerProxy, rs.KVOps}, {&cfg.Servers, rs.KVServers}, {&cfg.Clients, rs.KVClients},
		{&cfg.Keys, rs.KVKeys}, {&cfg.Window, rs.KVWindow},
	} {
		if k.v > 0 {
			*k.dst = k.v
		}
	}
	return cfg
}

// pingPongSize and pingPongIters resolve a pingpong or setup spec's
// message bytes and round trips: zero keeps 64 bytes and 200 round trips.
func pingPongSize(rs ledger.RunSpec) int { return cmp.Or(rs.Size, 64) }

func pingPongIters(rs ledger.RunSpec) int { return cmp.Or(rs.Iters, 200) }

// Observers are the optional observers RunCell attaches to a cell before
// its run. None of them changes what is simulated.
type Observers struct {
	// Metrics is attached to every layer of the cluster and folded after
	// the run; a kv cell's application outcome is folded into it too.
	Metrics *metrics.Registry
	// Attrib decomposes Metrics' spans into per-stage wait and service.
	Attrib *attrib.Collector
	// Ledger records the canonical execution ledger.
	Ledger *ledger.CanonicalRecorder
	// SampleEvery, when positive, starts a per-shard telemetry set
	// sampling at that sim-time interval.
	SampleEvery sim.Time
	// Attach, when set, runs after the observers above are attached and
	// before the motif starts, with the built cluster and the telemetry
	// set (nil unless SampleEvery is positive). Callers attach the
	// observers the harness does not own here.
	Attach func(c *motif.Cluster, samples *telemetry.ShardSet)
}

// CellOutput is everything one cell run produces.
type CellOutput struct {
	Spec     ledger.RunSpec
	Makespan sim.Time
	// Events is the number of model events the run executed.
	Events uint64
	Err    error
	// Topology is the built topology's name (the spec's Nodes is a floor
	// the topology rounds up from).
	Topology string
	// Ranks is the cluster size actually built; fault tables derive
	// goodput from it.
	Ranks int
	// Recovery aggregates the cell's recovery-layer counters (zero when
	// recovery was disabled). It, PacketsDropped and KV are populated even
	// when the run errored, so a deadlocked cell still reports what it
	// managed.
	Recovery       recovery.Stats
	PacketsDropped uint64
	// KV is the application-level outcome of a kv cell (nil for other
	// motifs).
	KV *motif.KVResult

	// The figure sweeps' per-cell artifacts (see runOneCell): the cell's
	// registry and attribution collector, and the rendered telemetry CSV
	// and execution-ledger JSON. Rendered in the worker, written during
	// the serial merge phase.
	Reg       *metrics.Registry
	Attrib    *attrib.Collector
	Telemetry []byte
	Ledger    []byte
}

// RunCell runs the cell rs describes with obs attached. It is the only
// place a motif cell's cluster is built: it checks the spec, builds the
// topology and the cluster (fault plan, recovery, lookahead scale),
// attaches obs and dispatches the motif. A bad spec yields a *SpecError.
func RunCell(rs ledger.RunSpec, obs Observers) CellOutput {
	out := CellOutput{Spec: rs}
	plan, err := checkSpec(rs)
	if err != nil {
		out.Err = err
		return out
	}
	topo, err := topology.ForNodeCount(topology.Kind(rs.Topology), rs.Nodes)
	if err != nil {
		out.Err = err
		return out
	}
	c, err := motif.NewCluster(clusterConfig(rs, topo, plan))
	if err != nil {
		out.Err = err
		return out
	}
	if s := rs.UnsafeLookaheadScale; s != 0 && s != 1 {
		c.Group.UnsafeScaleLookahead(s)
	}
	if obs.Ledger != nil {
		obs.Ledger.AttachGroup(c.Group)
	}
	if obs.Metrics != nil {
		c.AttachShardMetrics(obs.Metrics)
		if obs.Attrib != nil {
			c.AttachAttribution(obs.Metrics, obs.Attrib)
		}
	}
	var samples *telemetry.ShardSet
	if obs.SampleEvery > 0 {
		samples = telemetry.NewShardSet(c.Group, obs.SampleEvery)
		c.RegisterTelemetryShards(samples)
		samples.Start()
	}
	if obs.Attach != nil {
		obs.Attach(c, samples)
	}
	out.Makespan, out.KV, out.Err = motifRuns[MotifName(rs.Motif)](c, rs, topo.NumNodes())
	out.Events = c.EventsExecuted()
	out.Topology = topo.Name()
	out.Ranks = len(c.Transports)
	out.Recovery = c.RecoveryStats()
	out.PacketsDropped = c.Net.TotalStats().PacketsDropped
	if out.KV != nil && obs.Metrics != nil {
		foldKVResult(obs.Metrics, out.KV)
	}
	if out.Err != nil {
		out.Makespan = 0
		return out
	}
	c.FinishMetrics(obs.Metrics)
	return out
}

// cellName labels a cell for its telemetry and ledger file names: "motif|network|TRANSPORT|gbps", plus every non-default knob the
// sweeps vary, so two cells share a name only when they are the same
// cell. A host-profile cell adds its seed, since a latency figure's runs
// differ only in seed and host scale.
func cellName(rs ledger.RunSpec) string {
	name := fmt.Sprintf("%s|%s|%s|%gGbps", rs.Motif, rs.Network, strings.ToUpper(rs.Transport), rs.Gbps)
	if rs.Motif == string(MotifKV) {
		name += fmt.Sprintf("|skew%g|gap%gns", rs.KVSkew, rs.KVGapNs)
	}
	if rs.Drop > 0 {
		name += fmt.Sprintf("|drop%g", rs.Drop)
		if rs.Recover {
			name += "|rec"
		}
	}
	for _, k := range []struct {
		set  bool
		part string
	}{
		{rs.RDMABuffers > 0, fmt.Sprintf("|bufs%d", rs.RDMABuffers)},
		{rs.RVMADepth > 0, fmt.Sprintf("|depth%d", rs.RVMADepth)},
		{rs.Host != "", "|" + rs.Host},
		{rs.HostScale != 0, fmt.Sprintf("|scale%g", rs.HostScale)},
		{rs.Size > 0, fmt.Sprintf("|%dB", rs.Size)},
		{rs.Iters > 0, fmt.Sprintf("|x%d", rs.Iters)},
		{rs.Notify != "", "|" + rs.Notify},
		{rs.LastByte, "|lastbyte"},
		{rs.Host != "", fmt.Sprintf("|seed%d", rs.Seed)},
	} {
		if k.set {
			name += k.part
		}
	}
	return name
}
