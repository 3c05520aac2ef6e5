// Fault injection: a FaultPlan describes when the fabric loses packets.
//
// Loss is modeled at destination ingress (see Network.deliver): the packet
// pays every upstream cost — injection serialization, crossbar and output
// queues, link traversal, and any adaptive-routing state it perturbed —
// and is then discarded before the host callback, like a CRC failure
// detected at the receiving NIC. A dropped packet therefore never stops
// costing time mid-pipeline; it stops existing only after the full path
// cost was paid. Drop decisions draw from a dedicated RNG stream, never
// the engine's shared stream, so enabling faults does not perturb routing
// jitter or Valiant detour choices for the packets that survive.
package fabric

import (
	"fmt"
	"strconv"
	"strings"

	"rvma/internal/sim"
)

// FaultPlan describes deterministic failure injection for a fabric run.
// The zero value injects nothing.
type FaultPlan struct {
	// DropRate is a uniform per-packet loss probability in [0, 1]; 1 is a
	// legal total blackout.
	DropRate float64
	// BurstLen, when greater than 1, turns every random drop into a burst:
	// the next BurstLen-1 packets arriving at the same destination are
	// also dropped, modeling correlated loss (a link hiccup kills the
	// whole train, not one packet).
	BurstLen int
	// Windows are per-link degradation intervals layered on top of the
	// uniform rate.
	Windows []FaultWindow
}

// FaultWindow degrades delivery to one destination (or all) for a span of
// simulated time. Within [From, To) the effective drop probability is the
// max of the window's rate and the uniform rate.
type FaultWindow struct {
	// Node is the destination whose ingress degrades; -1 means every node.
	Node int
	// From and To bound the window as half-open simulated time [From, To).
	From, To sim.Time
	// DropRate is the per-packet loss probability inside the window.
	DropRate float64
}

// Enabled reports whether the plan can ever drop a packet.
func (p *FaultPlan) Enabled() bool {
	if p == nil {
		return false
	}
	if p.DropRate > 0 {
		return true
	}
	for _, w := range p.Windows {
		if w.DropRate > 0 {
			return true
		}
	}
	return false
}

// Validate reports plan configuration errors.
func (p *FaultPlan) Validate() error {
	if p == nil {
		return nil
	}
	if p.DropRate < 0 || p.DropRate > 1 {
		return fmt.Errorf("fabric: fault drop rate %v outside [0, 1]", p.DropRate)
	}
	if p.BurstLen < 0 {
		return fmt.Errorf("fabric: fault burst length %d negative", p.BurstLen)
	}
	for i, w := range p.Windows {
		if w.DropRate < 0 || w.DropRate > 1 {
			return fmt.Errorf("fabric: fault window %d drop rate %v outside [0, 1]", i, w.DropRate)
		}
		if w.Node < -1 {
			return fmt.Errorf("fabric: fault window %d node %d invalid (use -1 for all nodes)", i, w.Node)
		}
		if w.From < 0 || w.To < w.From {
			return fmt.Errorf("fabric: fault window %d has bad span [%v, %v)", i, w.From, w.To)
		}
	}
	return nil
}

// rateAt returns the effective drop probability for a packet reaching
// node's ingress at time now.
func (p *FaultPlan) rateAt(node int, now sim.Time) float64 {
	rate := p.DropRate
	for _, w := range p.Windows {
		if w.DropRate > rate && (w.Node == -1 || w.Node == node) &&
			now >= w.From && now < w.To {
			rate = w.DropRate
		}
	}
	return rate
}

// ParseFaultPlan parses the CLI fault-plan syntax: comma-separated clauses
//
//	drop=RATE                    uniform per-packet loss probability
//	burst=N                      burst length per random drop
//	window=NODE:FROM:TO:RATE     degradation window (NODE may be "all";
//	                             FROM/TO take ns/us/ms/s suffixes)
//
// e.g. "drop=0.05,burst=4,window=3:10us:20us:0.5". An empty string yields
// a nil plan.
func ParseFaultPlan(s string) (*FaultPlan, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	p := &FaultPlan{}
	for _, clause := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(clause), "=")
		if !ok {
			return nil, fmt.Errorf("fabric: fault clause %q is not key=value", clause)
		}
		switch key {
		case "drop":
			rate, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("fabric: fault drop rate %q: %v", val, err)
			}
			p.DropRate = rate
		case "burst":
			b, err := strconv.Atoi(val)
			if err != nil {
				return nil, fmt.Errorf("fabric: fault burst %q: %v", val, err)
			}
			p.BurstLen = b
		case "window":
			parts := strings.Split(val, ":")
			if len(parts) != 4 {
				return nil, fmt.Errorf("fabric: fault window %q wants NODE:FROM:TO:RATE", val)
			}
			var w FaultWindow
			if parts[0] == "all" {
				w.Node = -1
			} else {
				node, err := strconv.Atoi(parts[0])
				if err != nil {
					return nil, fmt.Errorf("fabric: fault window node %q: %v", parts[0], err)
				}
				w.Node = node
			}
			var err error
			if w.From, err = parseSimTime(parts[1]); err != nil {
				return nil, err
			}
			if w.To, err = parseSimTime(parts[2]); err != nil {
				return nil, err
			}
			if w.DropRate, err = strconv.ParseFloat(parts[3], 64); err != nil {
				return nil, fmt.Errorf("fabric: fault window rate %q: %v", parts[3], err)
			}
			p.Windows = append(p.Windows, w)
		default:
			return nil, fmt.Errorf("fabric: unknown fault clause %q (want drop/burst/window)", key)
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// parseSimTime parses "50ns", "10us", "1.5ms" or "2s" into simulated time.
func parseSimTime(s string) (sim.Time, error) {
	units := []struct {
		suffix string
		scale  sim.Time
	}{
		{"ns", sim.Nanosecond},
		{"us", sim.Microsecond},
		{"ms", sim.Millisecond},
		{"s", sim.Second},
	}
	for _, u := range units {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			if err != nil || v < 0 {
				return 0, fmt.Errorf("fabric: bad time %q", s)
			}
			return sim.ScaleF(u.scale, v), nil
		}
	}
	return 0, fmt.Errorf("fabric: time %q needs a ns/us/ms/s suffix", s)
}

// dropPacket decides, at delivery time, whether failure injection claims
// the packet arriving at node. Burst state is per destination so one
// flow's bad luck cannot leak drops onto an unrelated link. e is the
// engine executing the delivery and rng the destination's fault substream
// (per-destination streams make the drop sequence a function of the
// flow's own arrivals, so it survives repartitioning).
func (n *Network) dropPacket(node int, e *sim.Engine, rng *sim.RNG) bool {
	if n.burstLeft[node] > 0 {
		n.burstLeft[node]--
		return true
	}
	rate := n.faults.rateAt(node, e.Now())
	if rate <= 0 || rng.Float64() >= rate {
		return false
	}
	if n.faults.BurstLen > 1 {
		n.burstLeft[node] = n.faults.BurstLen - 1
	}
	return true
}
