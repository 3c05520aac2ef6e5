package harness

import (
	"fmt"

	"rvma/internal/fabric"
	"rvma/internal/ledger"
	"rvma/internal/motif"
	"rvma/internal/topology"
)

// This file converts between the harness's in-memory cell specs and the
// ledger's serializable RunSpec, and provides the in-process replay entry
// point cmd/simdiff uses: given the RunSpec embedded in a ledger file, run
// the exact same simulation again with a full-resolution capture window
// armed around a divergent epoch.

// runSpecFor renders a cell spec into the serializable form embedded in
// ledger files.
func runSpecFor(spec cellSpec, o Options) ledger.RunSpec {
	rs := ledger.RunSpec{
		Motif:     string(spec.M),
		Transport: transportName(spec.Kind),
		Topology:  string(spec.NC.Kind),
		Routing:   spec.NC.Routing.String(),
		Network:   spec.NC.Name,
		Nodes:     o.Nodes,
		Gbps:      spec.Gbps,
		Seed:      o.Seed,
		Drop:      spec.Fault.Drop,
		Recover:   spec.Fault.Recover,
		Shards:    o.Shards,
	}
	if spec.Fault.Recover {
		rs.RetryBudget = spec.Fault.Budget
	}
	if spec.M == MotifKV {
		// Embed the fully resolved KV knobs — including defaults derived
		// from the topology-rounded rank count — so a replay rebuilds the
		// identical proxy plans even on a spec whose cell left them zero.
		ranks := o.Nodes
		if topo, err := topology.ForNodeCount(spec.NC.Kind, o.Nodes); err == nil {
			ranks = topo.NumNodes()
		}
		kp := KVParamsFor(spec.KV.Config(ranks, o.Seed))
		rs.KVSkew = kp.Skew
		rs.KVGapNs = kp.GapNs
		rs.KVOps = kp.Ops
		rs.KVServers = kp.Servers
		rs.KVClients = kp.Clients
		rs.KVKeys = kp.Keys
		rs.KVWindow = kp.Window
	}
	return rs
}

// transportName lowercases a TransportKind for the spec ("rvma"/"rdma").
func transportName(k motif.TransportKind) string {
	if k == motif.KindRDMA {
		return "rdma"
	}
	return "rvma"
}

// cellSpecFor is the inverse of runSpecFor: it rebuilds the harness cell
// spec (and node count / seed) a RunSpec describes.
func cellSpecFor(rs ledger.RunSpec) (cellSpec, error) {
	var spec cellSpec
	switch rs.Motif {
	case string(MotifSweep3D), string(MotifHalo3D), string(MotifIncast), string(MotifKV):
		spec.M = MotifName(rs.Motif)
	default:
		return spec, fmt.Errorf("harness: unknown motif %q in run spec", rs.Motif)
	}
	switch rs.Transport {
	case "rvma":
		spec.Kind = motif.KindRVMA
	case "rdma":
		spec.Kind = motif.KindRDMA
	default:
		return spec, fmt.Errorf("harness: unknown transport %q in run spec", rs.Transport)
	}
	var routing fabric.RoutingMode
	switch rs.Routing {
	case "static":
		routing = fabric.RouteStatic
	case "adaptive":
		routing = fabric.RouteAdaptive
	case "valiant":
		routing = fabric.RouteValiant
	default:
		return spec, fmt.Errorf("harness: unknown routing %q in run spec", rs.Routing)
	}
	kind := topology.Kind(rs.Topology)
	found := false
	for _, k := range topology.Kinds() {
		if k == kind {
			found = true
			break
		}
	}
	if !found {
		return spec, fmt.Errorf("harness: unknown topology %q in run spec", rs.Topology)
	}
	name := rs.Network
	if name == "" {
		name = fmt.Sprintf("%s/%s", rs.Topology, rs.Routing)
	}
	spec.NC = NetConfig{Name: name, Kind: kind, Routing: routing}
	spec.Gbps = rs.Gbps
	spec.Fault = faultSpec{Drop: rs.Drop, Recover: rs.Recover, Budget: rs.RetryBudget}
	if spec.M == MotifKV {
		spec.KV = KVParams{Skew: rs.KVSkew, GapNs: rs.KVGapNs, Ops: rs.KVOps,
			Servers: rs.KVServers, Clients: rs.KVClients, Keys: rs.KVKeys, Window: rs.KVWindow}
	}
	return spec, nil
}

// ReplayOptions configures ReplaySpec.
type ReplayOptions struct {
	// EpochEvents must match the original recording for the ledgers to be
	// comparable; 0 uses the ledger default.
	EpochEvents uint64
	// WindowFrom/WindowTo arm full-resolution capture over a pop range
	// (both zero disables capture).
	WindowFrom, WindowTo uint64
	// Profile enables the host-time profile on the replay.
	Profile bool
}

// ReplaySpec re-runs the simulation a canonical ledger's embedded RunSpec
// describes with a fresh canonical recorder attached and returns the
// finalized ledger (including the captured window, when one was armed).
// Replay is exact: the cluster is built through the same code path as the
// original run, and the canonical chain is the same at any shard count.
// Raw pop-order ledgers from earlier builds are refused.
func ReplaySpec(l *ledger.Ledger, ro ReplayOptions) (*ledger.Ledger, *ledger.ProfileReport, error) {
	if err := l.CheckCanonical(); err != nil {
		return nil, nil, fmt.Errorf("harness: %w", err)
	}
	if l.Run == nil {
		return nil, nil, fmt.Errorf("harness: ledger embeds no run spec to replay")
	}
	rs := *l.Run
	spec, err := cellSpecFor(rs)
	if err != nil {
		return nil, nil, err
	}
	inst := cellInstr{cell: spec.cellName(), shards: rs.Shards, unsafeScale: rs.UnsafeLookaheadScale}
	inst.canon = ledger.NewCanonicalRecorder(ledger.Options{EpochEvents: ro.EpochEvents, Profile: ro.Profile, Run: &rs})
	if ro.WindowTo > 0 {
		inst.canon.SetWindow(ro.WindowFrom, ro.WindowTo)
	}
	if _, _, err := runMotifPoint(spec, rs.Nodes, rs.Seed, &inst); err != nil {
		return nil, nil, err
	}
	return inst.canon.Finalize(), inst.canon.Profile(), nil
}
