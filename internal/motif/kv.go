// The KV motif: a transactional get/put/CAS dataplane over the cluster's
// transports, shaped like a public-facing storage service rather than an
// HPC job (ROADMAP item 2). The first Servers ranks run keyed stores
// (internal/kv); every remaining rank is a client-aggregation proxy at an
// edge switch, multiplexing a slice of the simulated client population
// onto one transport endpoint.
//
// Client aggregation is what makes millions of clients tractable for
// both the protocol and the simulator: servers hold per-PROXY receive
// state (an RVMA mailbox or an RDMA buffer negotiation each), never
// per-client state, so fan-in grows the client population without
// growing any table. The proxy in turn keeps only aggregate state for
// its clients — a shared version cache (one word per key) and a
// presence bit per client — the way an edge cache collapses its
// downstream population. CAS requests carry the proxy cache's expected
// version; under hot-key skew many proxies race on the same keys with
// mutually stale caches, so the CAS failure rate is the contention
// signal the KV tables sweep.
//
// Determinism across shard and worker counts follows from two rules.
// First, every random draw happens at setup time: each proxy's entire
// operation sequence (key, verb, pacing gap) is materialized from its
// own seeded substream before the engine runs, so the workload is a pure
// function of the seed no matter how ranks are partitioned. Second, the
// wire carries only sizes; request and reply contents travel in per-pair
// FIFO queues written by the sender at issue time and read by the
// receiver at arrival time. Arrival is at least one fabric traversal —
// and therefore at least one conservative-lookahead window — after the
// push, so the shard barrier orders every push before its pop.
package motif

import (
	"fmt"

	"rvma/internal/kv"
	"rvma/internal/metrics"
	"rvma/internal/sim"
)

// kvHdrBytes is the fixed per-message envelope: verb, key, version,
// routing. Requests and replies are fixed-size slots (value space is
// always reserved) so byte-counted completion schemes see identical
// wire sizes for every op; goodput accounting charges only the payload
// that was semantically useful.
const kvHdrBytes = 64

// kvCASBytes is the useful payload of a CAS: the compared and swapped
// version words.
const kvCASBytes = 16

// KVConfig parameterizes the KV dataplane motif.
type KVConfig struct {
	// Servers is the number of store ranks (ranks [0, Servers)); every
	// other rank is a client-aggregation proxy.
	Servers int
	// Clients is the simulated client population, spread evenly across
	// the proxies. Per-client protocol state exists nowhere: only the
	// proxies' aggregate caches and presence bits scale with it.
	Clients int
	// Keys is the keyspace size, partitioned round-robin across servers.
	Keys int
	// Skew is the zipfian exponent of the key popularity distribution;
	// 0 is uniform, 0.99 the classic YCSB-like skew.
	Skew float64
	// OpsPerProxy is the number of operations each proxy issues.
	OpsPerProxy int
	// Window is the per-proxy cap on outstanding operations.
	Window int
	// Gap is the proxy's mean inter-issue gap (jittered ±50%): the
	// offered-load axis. Smaller gap = more aggregate client load per
	// edge switch.
	Gap sim.Time
	// GetFrac and PutFrac split the op mix; the remainder is CAS.
	GetFrac, PutFrac float64
	// ValBytes is the value size carried by puts and get replies.
	ValBytes int
	// Seed derives the per-proxy workload substreams. The cluster seed
	// is the natural choice; harness code sets it from the run seed.
	Seed uint64
}

// DefaultKVConfig returns the service-shaped defaults for a cluster of
// the given rank count: a handful of servers, a ~10^6 simulated client
// population behind the remaining proxies, YCSB-like 0.99 skew and a
// 70/20/10 get/put/CAS mix.
func DefaultKVConfig(ranks int) KVConfig {
	servers := ranks / 16
	if servers < 1 {
		servers = 1
	}
	if servers > 8 {
		servers = 8
	}
	return KVConfig{
		Servers:     servers,
		Clients:     1 << 20,
		Keys:        4096,
		Skew:        0.99,
		OpsPerProxy: 32,
		Window:      4,
		Gap:         2 * sim.Microsecond,
		GetFrac:     0.70,
		PutFrac:     0.20,
		ValBytes:    512,
	}
}

func (cfg KVConfig) reqBytes() int  { return kvHdrBytes + cfg.ValBytes }
func (cfg KVConfig) respBytes() int { return kvHdrBytes + cfg.ValBytes }

// KVResult aggregates the motif's application-level outcome. Proxy stats
// merge in rank order and server stats in server order after the run, so
// the result is byte-identical at any shard or worker count.
type KVResult struct {
	Proxies         int
	ClientsPerProxy int
	// SimulatedClients is the population actually configured
	// (Proxies × ClientsPerProxy >= cfg.Clients).
	SimulatedClients int
	// DistinctClients is how many distinct simulated clients issued at
	// least one op — the observable fan-in.
	DistinctClients int

	Issued    uint64
	Completed uint64
	Gets      uint64
	Puts      uint64
	CASOK     uint64
	CASFail   uint64
	// PayloadBytes is the semantically useful bytes moved by completed
	// ops (values for get/put, version words for CAS) — the goodput
	// numerator. Envelope and padding bytes are excluded.
	PayloadBytes uint64

	// ServerApplied is the total ops applied by the stores; equals
	// Completed on a clean run (every reply that was applied came back).
	ServerApplied uint64

	// Lat is the end-to-end issue-to-reply latency of every completed
	// op; the per-verb histograms split it.
	Lat, GetLat, PutLat, CASLat *metrics.Histogram
}

// kvOp is one planned operation: fully determined at setup except for
// the issue timestamp and the CAS expectation, which the proxy fills at
// issue time (single-writer: only the owning proxy's rank touches it).
type kvOp struct {
	key    int
	kind   kv.OpKind
	server int
	client int
	gap    sim.Time
	issued sim.Time
}

// kvFifo is a single-producer single-consumer descriptor queue for one
// (proxy, server) direction, sized to the pair's planned op count. The
// producer writes slots by index and owns tail; the consumer owns head.
// Neither side ever rewrites the slice header, so the two shards share
// only the slots, each written before the message that announces it.
type kvFifo[T any] struct {
	items []T
	tail  int // next slot to fill; producer-owned
	head  int // next slot to read; consumer-owned
}

func newKVFifo[T any](n int) kvFifo[T] { return kvFifo[T]{items: make([]T, n)} }

func (q *kvFifo[T]) push(v T) {
	q.items[q.tail] = v
	q.tail++
}

func (q *kvFifo[T]) pop() T {
	v := q.items[q.head]
	q.head++
	return v
}

// kvWindow is a proxy's outstanding-op limiter. All accesses happen on
// the proxy's own rank (sender acquires, receivers release), hence on
// one shard. The proxy's sender is the only process that waits on it,
// so one future, zeroed after each wake, serves every wait.
type kvWindow struct {
	avail   int
	waiting bool
	wake    sim.Future
}

func (w *kvWindow) acquire(p *sim.Process) {
	if w.avail == 0 {
		w.waiting = true
		p.Wait(&w.wake)
		w.wake = sim.Future{}
	}
	w.avail--
}

func (w *kvWindow) release(eng *sim.Engine) {
	w.avail++
	if w.waiting {
		w.waiting = false
		w.wake.Complete(eng, nil)
	}
}

// kvProxyStats is one proxy's single-writer scoreboard, merged after the
// run in rank order.
type kvProxyStats struct {
	issued, completed           uint64
	gets, puts                  uint64
	casOK, casFail              uint64
	payloadBytes                uint64
	lat, getLat, putLat, casLat metrics.Histogram
	clientSeen                  []bool
}

// RunKV executes the motif and returns the simulated makespan plus the
// application-level result. On deadlock (abandoned ops wedging a pair's
// stream) the result still carries whatever completed, so callers can
// report accounted abandonment.
func RunKV(c *Cluster, cfg KVConfig) (sim.Time, *KVResult, error) {
	ranks := len(c.Transports)
	if cfg.Servers < 1 || cfg.Servers >= ranks {
		return 0, nil, fmt.Errorf("kv: need 1 <= servers (%d) < ranks (%d)", cfg.Servers, ranks)
	}
	if cfg.Keys < cfg.Servers {
		return 0, nil, fmt.Errorf("kv: fewer keys (%d) than servers (%d)", cfg.Keys, cfg.Servers)
	}
	if cfg.OpsPerProxy < 1 || cfg.Window < 1 || cfg.ValBytes < 0 || cfg.Clients < 1 {
		return 0, nil, fmt.Errorf("kv: non-positive parameter")
	}
	if cfg.GetFrac < 0 || cfg.PutFrac < 0 || cfg.GetFrac+cfg.PutFrac > 1 {
		return 0, nil, fmt.Errorf("kv: bad op mix get=%v put=%v", cfg.GetFrac, cfg.PutFrac)
	}
	proxies := ranks - cfg.Servers
	cpp := (cfg.Clients + proxies - 1) / proxies

	// Materialize every proxy's full op sequence from its own substream.
	// This is the determinism anchor: no RNG is consulted once the
	// engine starts, so the workload is identical at any partitioning.
	zipf := kv.NewZipf(cfg.Keys, cfg.Skew)
	plans := make([][]kvOp, proxies)
	for pi := 0; pi < proxies; pi++ {
		rng := sim.NewRNG(sim.SeedFor(cfg.Seed, "kv-proxy", pi))
		plan := make([]kvOp, cfg.OpsPerProxy)
		for i := range plan {
			key := zipf.Sample(rng)
			mix := rng.Float64()
			kind := kv.OpCAS
			if mix < cfg.GetFrac {
				kind = kv.OpGet
			} else if mix < cfg.GetFrac+cfg.PutFrac {
				kind = kv.OpPut
			}
			plan[i] = kvOp{
				key:    key,
				kind:   kind,
				server: kv.ServerFor(key, cfg.Servers),
				client: rng.Intn(cpp),
				gap:    rng.Jitter(cfg.Gap, 0.5),
			}
		}
		plans[pi] = plan
	}

	// Pair traffic counts, known to both sides up front — servers expect
	// exactly the planned number of requests per proxy, so no
	// termination protocol rides the wire.
	pairCount := make([][]int, proxies) // [proxy][server]
	for pi, plan := range plans {
		pairCount[pi] = make([]int, cfg.Servers)
		for i := range plan {
			pairCount[pi][plan[i].server]++
		}
	}

	// Per-pair descriptor queues (see the package comment for why this
	// cross-shard handoff is safe). reqQ carries requests proxy→server,
	// respQ replies server→proxy; capacities preallocated from the plan.
	reqQ := make([][]kvFifo[kv.Request], proxies)
	respQ := make([][]kvFifo[kv.Reply], cfg.Servers)
	for pi := range reqQ {
		reqQ[pi] = make([]kvFifo[kv.Request], cfg.Servers)
		for s := range reqQ[pi] {
			if n := pairCount[pi][s]; n > 0 {
				reqQ[pi][s] = newKVFifo[kv.Request](n)
			}
		}
	}
	for s := range respQ {
		respQ[s] = make([]kvFifo[kv.Reply], proxies)
		for pi := range respQ[s] {
			if n := pairCount[pi][s]; n > 0 {
				respQ[s][pi] = newKVFifo[kv.Reply](n)
			}
		}
	}

	stores := make([]*kv.Store, cfg.Servers)
	for s := range stores {
		stores[s] = kv.NewStore(cfg.Keys, cfg.Servers, s)
	}
	prStats := make([]*kvProxyStats, proxies)
	for pi := range prStats {
		prStats[pi] = &kvProxyStats{clientSeen: make([]bool, cpp)}
	}

	fin := NewFinishLine(ranks)
	maxMsg := cfg.reqBytes()
	if cfg.respBytes() > maxMsg {
		maxMsg = cfg.respBytes()
	}

	// Servers: one main process Prepares, then one handler per active
	// proxy works the pair's request stream. Receive-side state is per
	// proxy — never per client — which is the aggregation claim.
	for s := 0; s < cfg.Servers; s++ {
		s := s
		tp := c.Transports[s]
		tag := c.TagFor(s)
		store := stores[s]
		active := make([]int, 0, proxies)
		for pi := 0; pi < proxies; pi++ {
			if pairCount[pi][s] > 0 {
				active = append(active, pi)
			}
		}
		tag.Spawn("kv-server", func(p *sim.Process) {
			peers := make([]int, len(active))
			for i, pi := range active {
				peers[i] = cfg.Servers + pi
			}
			p.Wait(tp.Prepare(peers, peers, maxMsg))
			if len(active) == 0 {
				fin.Arrive(s, tag.Now())
				return
			}
			left := len(active)
			for _, pi := range active {
				pi := pi
				count := pairCount[pi][s]
				tag.Spawn("kv-server-proxy", func(p *sim.Process) {
					prox := cfg.Servers + pi
					for i := 0; i < count; i++ {
						tp.Recv(p, prox, cfg.reqBytes())
						req := reqQ[pi][s].pop()
						rep := store.Apply(req)
						respQ[s][pi].push(rep)
						tp.Send(prox, cfg.respBytes())
						tp.WaitSent(p, prox)
					}
					left--
					if left == 0 {
						fin.Arrive(s, tag.Now())
					}
				})
			}
		})
	}

	// Proxies: one main process Prepares and paces the plan through the
	// window; one receiver per active server consumes replies in that
	// pair's issue order, measures latency, refreshes the version cache
	// and releases window credit.
	for pi := 0; pi < proxies; pi++ {
		pi := pi
		rank := cfg.Servers + pi
		tp := c.Transports[rank]
		tag := c.TagFor(rank)
		plan := plans[pi]
		st := prStats[pi]
		win := &kvWindow{avail: cfg.Window}
		cache := make([]uint64, cfg.Keys) // shared across the proxy's clients
		// Per-server subsequences of the plan, in issue order: receiver
		// i's pair stream is exactly these ops.
		seq := make([][]int, cfg.Servers)
		for i := range plan {
			seq[plan[i].server] = append(seq[plan[i].server], i)
		}
		tag.Spawn("kv-proxy", func(p *sim.Process) {
			active := make([]int, 0, cfg.Servers)
			for s := 0; s < cfg.Servers; s++ {
				if len(seq[s]) > 0 {
					active = append(active, s)
				}
			}
			p.Wait(tp.Prepare(active, active, maxMsg))
			procs := 1 + len(active)
			finish := func() {
				procs--
				if procs == 0 {
					fin.Arrive(rank, tag.Now())
				}
			}
			for _, s := range active {
				s := s
				idxs := seq[s]
				tag.Spawn("kv-proxy-server", func(p *sim.Process) {
					for _, idx := range idxs {
						tp.Recv(p, s, cfg.respBytes())
						rep := respQ[s][pi].pop()
						op := &plan[idx]
						st.completed++
						st.lat.ObserveTime(tag.Now() - op.issued)
						switch op.kind {
						case kv.OpGet:
							st.gets++
							st.getLat.ObserveTime(tag.Now() - op.issued)
							st.payloadBytes += uint64(cfg.ValBytes)
						case kv.OpPut:
							st.puts++
							st.putLat.ObserveTime(tag.Now() - op.issued)
							st.payloadBytes += uint64(cfg.ValBytes)
						case kv.OpCAS:
							st.casLat.ObserveTime(tag.Now() - op.issued)
							if rep.OK {
								st.casOK++
							} else {
								st.casFail++
							}
							st.payloadBytes += kvCASBytes
						}
						// Every reply carries the key's current version:
						// the aggregate cache refresh that keeps CAS
						// expectations only as stale as the last contact.
						cache[op.key] = rep.Version
						win.release(p.Engine())
					}
					finish()
				})
			}
			for i := range plan {
				op := &plan[i]
				p.Sleep(op.gap)
				win.acquire(p)
				st.issued++
				st.clientSeen[op.client] = true
				req := kv.Request{Key: op.key, Kind: op.kind}
				if op.kind == kv.OpCAS {
					req.Expect = cache[op.key]
				}
				reqQ[pi][op.server].push(req)
				op.issued = tag.Now()
				tp.Send(op.server, cfg.reqBytes())
				tp.WaitSent(p, op.server)
			}
			finish()
		})
	}

	c.Run()

	res := &KVResult{
		Proxies:          proxies,
		ClientsPerProxy:  cpp,
		SimulatedClients: proxies * cpp,
		Lat:              &metrics.Histogram{},
		GetLat:           &metrics.Histogram{},
		PutLat:           &metrics.Histogram{},
		CASLat:           &metrics.Histogram{},
	}
	// Merge in fixed rank order after every shard is quiescent: integer
	// counters and picosecond histogram sums make this exact.
	for _, st := range prStats {
		res.Issued += st.issued
		res.Completed += st.completed
		res.Gets += st.gets
		res.Puts += st.puts
		res.CASOK += st.casOK
		res.CASFail += st.casFail
		res.PayloadBytes += st.payloadBytes
		res.Lat.Merge(&st.lat)
		res.GetLat.Merge(&st.getLat)
		res.PutLat.Merge(&st.putLat)
		res.CASLat.Merge(&st.casLat)
		for _, seen := range st.clientSeen {
			if seen {
				res.DistinctClients++
			}
		}
	}
	for _, store := range stores {
		res.ServerApplied += store.Applied()
	}

	if !fin.AllDone() {
		return 0, res, fmt.Errorf("kv: %w (%d/%d ops completed)", ErrDeadlock, res.Completed, res.Issued)
	}
	if res.Completed != res.Issued || res.ServerApplied != res.Completed {
		return 0, res, fmt.Errorf("kv: accounting mismatch: issued %d completed %d applied %d",
			res.Issued, res.Completed, res.ServerApplied)
	}
	return fin.FinishTime(), res, nil
}
