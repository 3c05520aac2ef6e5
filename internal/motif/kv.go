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
// its clients — a shared version cache (one word per distinct key its
// plan names) and a presence bit per client — the way an edge cache
// collapses its
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
	"math/bits"

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
	slot   int32 // the key's entry in its proxy's version cache
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
// one shard. The proxy's sender is the only caller that waits on it, so
// one continuation slot serves every wait.
type kvWindow struct {
	avail int
	k     func() // the waiting sender's continuation, nil when none waits
}

// acquire takes a slot and reports true, or, with none free, reports
// false and runs k at the next release, which frees one for the caller
// to acquire again.
//
//rvmalint:hot
func (w *kvWindow) acquire(k func()) bool {
	if w.avail == 0 {
		w.k = k
		return false
	}
	w.avail--
	return true
}

// release frees a slot and continues a waiting sender.
//
//rvmalint:hot
func (w *kvWindow) release() {
	w.avail++
	if k := w.k; k != nil {
		w.k = nil
		k()
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
	clientSeen                  []uint64 // a bit per client the proxy issued for
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
	// Each distinct key of a plan gets a slot in its proxy's version
	// cache, so a cache is as long as the plan's keys, not the keyspace.
	// slotOf maps a key to its slot+1 in the plan at hand (0: none yet).
	zipf := kv.NewZipf(cfg.Keys, cfg.Skew)
	plans := make([][]kvOp, proxies)
	slots := make([]int32, proxies)
	slotOf := make([]int32, cfg.Keys)
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
			if slotOf[key] == 0 {
				slots[pi]++
				slotOf[key] = slots[pi]
			}
			plan[i] = kvOp{
				key:    key,
				slot:   slotOf[key] - 1,
				kind:   kind,
				server: kv.ServerFor(key, cfg.Servers),
				client: rng.Intn(cpp),
				gap:    rng.Jitter(cfg.Gap, 0.5),
			}
		}
		plans[pi] = plan
		for i := range plan {
			slotOf[plan[i].key] = 0
		}
	}

	// Pair traffic counts, known to both sides up front — servers expect
	// exactly the planned number of requests per proxy, so no
	// termination protocol rides the wire.
	pairCount := make([][]int, proxies) // [proxy][server]
	pairs := 0                          // (proxy, server) pairs with traffic
	for pi, plan := range plans {
		pairCount[pi] = make([]int, cfg.Servers)
		for i := range plan {
			if pairCount[pi][plan[i].server] == 0 {
				pairs++
			}
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
	seenWords := (cpp + 63) / 64
	for pi := range prStats {
		prStats[pi] = &kvProxyStats{clientSeen: make([]uint64, seenWords)}
	}

	job := &kvJob{cfg: cfg, reqQ: reqQ, respQ: respQ, fin: NewFinishLine(ranks), maxMsg: cfg.reqBytes()}
	if cfg.respBytes() > job.maxMsg {
		job.maxMsg = cfg.respBytes()
	}

	// Servers: each Prepares, then runs one handler per active proxy on
	// the pair's request stream. Receive-side state is per proxy — never
	// per client — which is the aggregation claim.
	servers := make([]kvServer, cfg.Servers)
	handlers := make([]kvHandler, 0, pairs)
	for s := range servers {
		srv := &servers[s]
		srv.job, srv.tp, srv.tag, srv.s, srv.store = job, c.Transports[s], c.TagFor(s), s, stores[s]
		first := len(handlers)
		for pi := 0; pi < proxies; pi++ {
			if n := pairCount[pi][s]; n > 0 {
				// handlers never grows past pairs, so h stays put.
				handlers = append(handlers, kvHandler{srv: srv, pi: pi, count: n, phase: kvAwait})
				h := &handlers[len(handlers)-1]
				h.wake = h.step
				srv.peers = append(srv.peers, cfg.Servers+pi)
			}
		}
		srv.handlers = handlers[first:len(handlers):len(handlers)]
		srv.wake = srv.step
		srv.tag.Schedule(0, srv.wake)
	}

	// Proxies: each Prepares and paces its plan through the window; one
	// receiver per active server consumes replies in that pair's issue
	// order, measures latency, refreshes the version cache and releases
	// window credit.
	prox := make([]kvProxy, proxies)
	receivers := make([]kvReceiver, 0, pairs)
	for pi := range prox {
		px := &prox[pi]
		px.job, px.pi, px.rank = job, pi, cfg.Servers+pi
		px.tp, px.tag = c.Transports[px.rank], c.TagFor(px.rank)
		px.plan, px.st = plans[pi], prStats[pi]
		px.win.avail = cfg.Window
		px.cache = make([]uint64, slots[pi]) // shared across the proxy's clients
		// Per-server subsequences of the plan, in issue order: receiver
		// i's pair stream is exactly these ops.
		seq := make([][]int, cfg.Servers)
		for i := range px.plan {
			seq[px.plan[i].server] = append(seq[px.plan[i].server], i)
		}
		first := len(receivers)
		for s := range seq {
			if len(seq[s]) > 0 {
				receivers = append(receivers, kvReceiver{px: px, s: s, idxs: seq[s], phase: kvAwait})
				rc := &receivers[len(receivers)-1]
				rc.wake = rc.step
				px.active = append(px.active, s)
			}
		}
		px.receivers = receivers[first:len(receivers):len(receivers)]
		px.wake = px.step
		px.tag.Schedule(0, px.wake)
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
			res.DistinctClients += bits.OnesCount64(seen)
		}
	}
	for _, store := range stores {
		res.ServerApplied += store.Applied()
	}

	if !job.fin.AllDone() {
		return 0, res, fmt.Errorf("kv: %w (%d/%d ops completed)", ErrDeadlock, res.Completed, res.Issued)
	}
	if res.Completed != res.Issued || res.ServerApplied != res.Completed {
		return 0, res, fmt.Errorf("kv: accounting mismatch: issued %d completed %d applied %d",
			res.Issued, res.Completed, res.ServerApplied)
	}
	return job.fin.FinishTime(), res, nil
}

// kvJob is what every rank of one RunKV call shares.
type kvJob struct {
	cfg    KVConfig
	reqQ   [][]kvFifo[kv.Request] // [proxy][server]
	respQ  [][]kvFifo[kv.Reply]   // [server][proxy]
	fin    *FinishLine
	maxMsg int
}

type kvPhase uint8

const (
	kvPrepare kvPhase = iota
	kvStart           // start the rank's handlers or receivers
	kvGap             // a proxy's: pace op r.next
	kvIssue           // a proxy's: take a window slot and issue op r.next
	kvAwait           // a handler's or receiver's: wait for the next message
	kvHandle          // a handler's or receiver's: act on the message
)

// kvServer is a store rank: once prepared, it starts one kvHandler per
// proxy that sends it requests, and it finishes when they all have.
type kvServer struct {
	guard    sim.StepGuard
	job      *kvJob
	tp       Transport
	tag      sim.Tagged
	wake     func() // r.step
	s        int
	store    *kv.Store
	peers    []int       // the proxies' ranks, in proxy order
	handlers []kvHandler // one per peer
	left     int         // handlers still working
	phase    kvPhase
}

// step runs the server up to its next wait.
//
//rvmalint:hot
func (r *kvServer) step() {
	if sim.DebugEnabled {
		r.guard.Enter("kv-server")
		defer r.guard.Leave()
	}
	for {
		switch r.phase {
		case kvPrepare:
			r.phase = kvStart
			if !r.tp.Prepare(r.peers, r.peers, r.job.maxMsg, r.wake) {
				return
			}
		case kvStart:
			if len(r.handlers) == 0 {
				r.job.fin.Arrive(r.s, r.tag.Now())
				return
			}
			r.left = len(r.handlers)
			for i := range r.handlers {
				r.tag.Schedule(0, r.handlers[i].wake)
			}
			return
		}
	}
}

// kvHandler works one proxy's request stream at a server: receive a
// request, apply it, reply, and wait for the reply to leave.
type kvHandler struct {
	guard sim.StepGuard
	srv   *kvServer
	wake  func() // h.step
	pi    int    // the proxy's index
	count int    // requests the proxy sends this server
	done  int    // requests received
	phase kvPhase
}

// step runs the handler up to its next wait.
//
//rvmalint:hot
func (h *kvHandler) step() {
	if sim.DebugEnabled {
		h.guard.Enter("kv-server-proxy")
		defer h.guard.Leave()
	}
	srv := h.srv
	job, tp := srv.job, srv.tp
	prox := job.cfg.Servers + h.pi
	for {
		switch h.phase {
		case kvAwait:
			if h.done == h.count {
				if srv.left--; srv.left == 0 {
					job.fin.Arrive(srv.s, srv.tag.Now())
				}
				return
			}
			h.done++
			h.phase = kvHandle
			if !tp.Recv(prox, job.cfg.reqBytes(), h.wake) {
				return
			}
		case kvHandle:
			rep := srv.store.Apply(job.reqQ[h.pi][srv.s].pop())
			job.respQ[srv.s][h.pi].push(rep)
			tp.Send(prox, job.cfg.respBytes())
			h.phase = kvAwait
			if !tp.WaitSent(prox, h.wake) {
				return
			}
		}
	}
}

// kvProxy is a client-aggregation rank: once prepared, it starts one
// kvReceiver per server it sends to, then paces its plan through the
// window, each op once the previous request has left. It finishes when
// it and its receivers all have.
type kvProxy struct {
	guard     sim.StepGuard
	job       *kvJob
	tp        Transport
	tag       sim.Tagged
	wake      func() // r.step
	pi, rank  int
	plan      []kvOp
	st        *kvProxyStats
	win       kvWindow
	cache     []uint64     // the version last seen of each key of the plan, by kvOp.slot
	active    []int        // the servers the plan sends to, in server order
	receivers []kvReceiver // one per active server
	live      int          // this proxy's records still working
	phase     kvPhase
	next      int // the next op of the plan
}

// step runs the proxy up to its next wait.
//
//rvmalint:hot
func (r *kvProxy) step() {
	if sim.DebugEnabled {
		r.guard.Enter("kv-proxy")
		defer r.guard.Leave()
	}
	job, tp := r.job, r.tp
	for {
		switch r.phase {
		case kvPrepare:
			r.phase = kvStart
			if !tp.Prepare(r.active, r.active, job.maxMsg, r.wake) {
				return
			}
		case kvStart:
			r.live = 1 + len(r.receivers)
			for i := range r.receivers {
				r.tag.Schedule(0, r.receivers[i].wake)
			}
			r.phase = kvGap
		case kvGap:
			if r.next == len(r.plan) {
				r.finish()
				return
			}
			r.phase = kvIssue
			r.tag.Schedule(r.plan[r.next].gap, r.wake)
			return
		case kvIssue:
			if !r.win.acquire(r.wake) {
				return
			}
			op := &r.plan[r.next]
			r.st.issued++
			r.st.clientSeen[op.client/64] |= 1 << (op.client % 64)
			req := kv.Request{Key: op.key, Kind: op.kind}
			if op.kind == kv.OpCAS {
				req.Expect = r.cache[op.slot]
			}
			job.reqQ[r.pi][op.server].push(req)
			op.issued = r.tag.Now()
			tp.Send(op.server, job.cfg.reqBytes())
			r.next++
			r.phase = kvGap
			if !tp.WaitSent(op.server, r.wake) {
				return
			}
		}
	}
}

// finish records that one of the proxy's records is done; the last one
// finishes the rank.
func (r *kvProxy) finish() {
	if r.live--; r.live == 0 {
		r.job.fin.Arrive(r.rank, r.tag.Now())
	}
}

// kvReceiver consumes one server's replies at a proxy, in the pair's
// issue order.
type kvReceiver struct {
	guard sim.StepGuard
	px    *kvProxy
	wake  func() // rc.step
	s     int    // the server
	idxs  []int  // the plan indices of the ops sent to s, in issue order
	done  int    // replies received
	phase kvPhase
}

// step runs the receiver up to its next wait.
//
//rvmalint:hot
func (rc *kvReceiver) step() {
	if sim.DebugEnabled {
		rc.guard.Enter("kv-proxy-server")
		defer rc.guard.Leave()
	}
	px := rc.px
	cfg := &px.job.cfg
	for {
		switch rc.phase {
		case kvAwait:
			if rc.done == len(rc.idxs) {
				px.finish()
				return
			}
			rc.phase = kvHandle
			if !px.tp.Recv(rc.s, cfg.respBytes(), rc.wake) {
				return
			}
		case kvHandle:
			rc.phase = kvAwait
			rep := px.job.respQ[rc.s][px.pi].pop()
			op := &px.plan[rc.idxs[rc.done]]
			rc.done++
			st, now := px.st, px.tag.Now()
			st.completed++
			st.lat.ObserveTime(now - op.issued)
			switch op.kind {
			case kv.OpGet:
				st.gets++
				st.getLat.ObserveTime(now - op.issued)
				st.payloadBytes += uint64(cfg.ValBytes)
			case kv.OpPut:
				st.puts++
				st.putLat.ObserveTime(now - op.issued)
				st.payloadBytes += uint64(cfg.ValBytes)
			case kv.OpCAS:
				st.casLat.ObserveTime(now - op.issued)
				if rep.OK {
					st.casOK++
				} else {
					st.casFail++
				}
				st.payloadBytes += kvCASBytes
			}
			// Every reply carries the key's current version: the
			// aggregate cache refresh that keeps CAS expectations only as
			// stale as the last contact.
			px.cache[op.slot] = rep.Version
			px.win.release()
		}
	}
}
