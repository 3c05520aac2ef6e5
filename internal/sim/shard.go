package sim

import "sort"

// This file implements conservative lookahead-parallel execution: one
// logical simulation partitioned across several Engines ("shards"), each
// with its own event heap, synchronized in rounds. The classic PDES
// argument applies directly to our fixed-latency fabric: if every
// cross-shard interaction takes at least `lookahead` simulated time, then
// any event with timestamp below (global lower bound + lookahead) cannot
// be affected by an event another shard has yet to execute, so all shards
// may execute their windows concurrently without ever seeing an event out
// of order.
//
// Determinism is the design constraint that shapes everything here:
//
//   - Cross-shard handoffs are buffered in per-sender outboxes during a
//     round and delivered at the barrier in a stable (time, priority,
//     sender, emission-index) order, so destination-heap contents — and
//     therefore destination seq assignment — are a pure function of model
//     state, independent of host scheduling.
//   - Daemon events (telemetry ticks) interleave with model events up to
//     each round's window limit, unconditionally. Rounds partition
//     simulated time into disjoint ascending windows, so a tick at time t
//     runs in the unique round covering t — before any later barrier
//     delivery reaches its heap — and therefore observes an exact
//     consistent cut of the model at every shard count. The window-limit
//     sequence itself depends only on event times, never on placement, so
//     the tick grid is identical at any shard count (see Run for the one
//     bounded difference versus a single heap).
//   - Each shard's RNG is seeded via SeedFor(seed, "shard", i), so a
//     component's draws depend on its own history, not on how work was
//     partitioned.
//
// Every run is a ShardGroup, a one-shard group included. Engine.RunUntil
// is the bare single-engine loop that unit tests and standalone engines
// drive; it shares its execution step with the shard window.

// xpost is one cross-shard event handoff, parked in the sender's outbox
// until the round barrier.
type xpost struct {
	src, dst int
	at       Time
	priority int
	label    Label
	h        Handler
	idx      int // per-sender emission index within the round (sort tie-break)
}

// ShardGroup runs a simulation partitioned across n shard Engines with a
// conservative lookahead window. Construct the model by scheduling onto
// the individual shard engines (Shard(i)); route every cross-shard
// interaction through Post. ShardGroup methods other than Post are not
// safe for concurrent use; Post is safe only from the goroutine currently
// executing the named sender shard's window (the single-writer rule the
// outboxes rely on).
type ShardGroup struct {
	shards    []*Engine
	lookahead Time
	outbox    [][]xpost
	xbuf      []xpost // flattened delivery scratch, reused across rounds
	onBarrier []func()

	// Worker machinery: one persistent goroutine per shard, fed one round
	// window at a time. Lazily started on the first round with 2+ active
	// shards, stopped when Run returns.
	cmd      []chan shardWindow
	done     chan struct{}
	panicVal []any
	started  bool
}

// shardWindow is one round's execution bound for a shard worker.
type shardWindow struct {
	limit Time
}

// NewShardGroup returns a group of n shard engines with the given
// lookahead window (the minimum simulated time any cross-shard handoff
// takes; must be positive). Shard i's engine is seeded deterministically
// from (seed, i), so the same seed yields the same per-shard draw
// sequences regardless of how many other shards exist.
func NewShardGroup(seed uint64, n int, lookahead Time) *ShardGroup {
	if n < 1 {
		panic("sim: ShardGroup needs at least one shard")
	}
	if lookahead < 1 {
		panic("sim: ShardGroup lookahead must be positive")
	}
	g := &ShardGroup{
		shards:    make([]*Engine, n),
		lookahead: lookahead,
		outbox:    make([][]xpost, n),
		panicVal:  make([]any, n),
	}
	for i := range g.shards {
		g.shards[i] = NewEngine(SeedFor(seed, "shard", i))
	}
	return g
}

// Shards returns the number of shards in the group.
func (g *ShardGroup) Shards() int { return len(g.shards) }

// Shard returns shard i's engine. Model construction schedules directly
// onto it; during Run it must only be touched by its own window.
func (g *ShardGroup) Shard(i int) *Engine { return g.shards[i] }

// Lookahead returns the group's synchronization window.
func (g *ShardGroup) Lookahead() Time { return g.lookahead }

// UnsafeScaleLookahead multiplies the lookahead by factor. It exists only
// so tests and the CI canary can deliberately break conservatism: a
// factor > 1 claims a wider safe window than cross-shard latencies
// justify, which lets a shard run past a handoff it has not yet received
// — simdebug builds trip a causality invariant, release builds silently
// diverge from the single-heap reference (which is exactly what the
// canary demonstrates the ledger catching).
func (g *ShardGroup) UnsafeScaleLookahead(factor float64) {
	g.lookahead = ScaleF(g.lookahead, factor)
	if g.lookahead < 1 {
		g.lookahead = 1
	}
}

// OnBarrier registers fn to run (on the Run goroutine, with all shards
// quiescent) after every round's windows complete. The canonical ledger
// uses it to fold the round's records into the chain in merged order.
func (g *ShardGroup) OnBarrier(fn func()) {
	g.onBarrier = append(g.onBarrier, fn)
}

// Post schedules h at absolute time at on shard dst, on behalf of shard
// src. Same-shard posts schedule immediately; cross-shard posts are
// buffered and delivered at the next round barrier in a deterministic
// order. The label must be one interned on the destination shard's
// engine (components tag every shard engine at construction, so the
// handle for the destination is always at hand).
//
// Conservative correctness requires at >= sender now + lookahead for
// cross-shard posts; simdebug builds assert it.
func (g *ShardGroup) Post(src, dst int, at Time, priority int, label Label, h Handler) {
	if DebugEnabled {
		Assertf(src >= 0 && src < len(g.shards) && dst >= 0 && dst < len(g.shards),
			"cross-shard post with bad shard ids src=%d dst=%d (have %d shards)", src, dst, len(g.shards))
	}
	if src == dst {
		e := g.shards[src]
		if DebugEnabled {
			Assertf(at >= e.now, "same-shard post at %v before shard %d clock %v", at, src, e.now)
		}
		e.at(at, priority, label, h, false)
		return
	}
	if DebugEnabled {
		Assertf(at >= g.shards[src].now+g.lookahead,
			"cross-shard handoff at %v violates lookahead: sender shard %d is at %v, window %v (lookahead too large for the real link latency?)",
			at, src, g.shards[src].now, g.lookahead)
	}
	box := g.outbox[src]
	g.outbox[src] = append(box, xpost{
		src: src, dst: dst, at: at, priority: priority, label: label, h: h, idx: len(box),
	})
}

// deliver flushes all outboxes into the destination heaps in stable
// (time, priority, sender, emission-index) order. Runs between rounds,
// single-threaded.
func (g *ShardGroup) deliver() {
	total := 0
	for _, box := range g.outbox {
		total += len(box)
	}
	if total == 0 {
		return
	}
	all := g.xbuf[:0]
	for i, box := range g.outbox {
		all = append(all, box...)
		g.outbox[i] = box[:0]
	}
	sort.Slice(all, func(a, b int) bool {
		x, y := &all[a], &all[b]
		if x.at != y.at {
			return x.at < y.at
		}
		if x.priority != y.priority {
			return x.priority < y.priority
		}
		if x.src != y.src {
			return x.src < y.src
		}
		return x.idx < y.idx
	})
	for i := range all {
		p := &all[i]
		dst := g.shards[p.dst]
		if DebugEnabled {
			Assertf(p.at >= dst.now,
				"cross-shard handoff at %v arrives behind destination shard %d clock %v (causality violated; lookahead too large?)",
				p.at, p.dst, dst.now)
		}
		dst.at(p.at, p.priority, p.label, p.h, false)
		p.h = nil // don't pin handlers in the reused scratch buffer
	}
	g.xbuf = all
}

// Run executes the partitioned simulation to completion and returns the
// time of the last model event (the same value a single-heap run of the
// same model returns). Every shard's clock is left synchronized to that
// time. Daemon events (ticks) are deterministic and identical at every
// shard count; the one difference versus a single heap is bounded and
// one-sided: because the final round's window may extend up to lookahead
// past the last model event, ticks can additionally fire at times
// strictly within (final, final + lookahead). Every tick before the final
// model time executes, exactly as on a single heap.
func (g *ShardGroup) Run() Time {
	defer g.stopWorkers()
	for {
		g.deliver()
		pending := 0
		for _, e := range g.shards {
			pending += e.Pending()
		}
		if pending == 0 {
			break
		}
		// The lower bound on any future model event. Shards whose model
		// has locally drained contribute nothing: their remaining daemon
		// events are read-only riders that can neither post handoffs nor
		// schedule model work, so they never constrain another shard's
		// safety — and excluding them keeps a long-idle shard's pending
		// telemetry ticks from freezing the horizon. Note Pending() counts
		// model events only, so lbts is placement-invariant: it depends on
		// event times alone, which keeps the round (and therefore tick)
		// schedule identical at every shard count.
		lbts := MaxTime
		for _, e := range g.shards {
			if e.Pending() > 0 {
				if t := e.NextEventTime(); t < lbts {
					lbts = t
				}
			}
		}
		horizon := lbts + g.lookahead
		if horizon < lbts { // overflow clamp
			horizon = MaxTime
		}
		g.runRound(horizon - 1)
		if DebugEnabled {
			// Safe-horizon invariant: after a regular round no shard's clock
			// may pass the window limit — an event popped beyond it could have
			// been affected by a handoff another shard has not delivered yet.
			// (Regular windows ascend, so this holds for idle shards too; the
			// final drain pass below is exempt because its limit can be
			// narrower than the last regular window.)
			for i, e := range g.shards {
				Assertf(e.now <= horizon-1,
					"shard %d clock %v ran past round limit %v (safe-horizon violation)", i, e.now, horizon-1)
			}
		}
		for _, fn := range g.onBarrier {
			fn()
		}
	}
	// Model drained everywhere. One final daemon pass bounded by the exact
	// global last model time guarantees the single-heap inclusion side of
	// the contract: every tick strictly before the final model event has
	// executed. (Usually a no-op — the last regular round's window already
	// reached at least this far.)
	var last Time
	for _, e := range g.shards {
		if e.lastModelAt > last {
			last = e.lastModelAt
		}
	}
	g.runRound(last - 1)
	for _, e := range g.shards {
		e.syncClock(last)
	}
	return last
}

// runRound executes one window on every shard whose next event (model or
// daemon) falls inside it. Shards run concurrently on persistent workers
// when two or more are active; a lone active shard runs inline to skip
// the handoff latency.
func (g *ShardGroup) runRound(limit Time) {
	active := 0
	lone := -1
	for i, e := range g.shards {
		if e.NextEventTime() <= limit {
			active++
			lone = i
		}
	}
	switch {
	case active == 0:
		// Nothing to run, but fall through to the horizon check: a clock
		// sitting past the limit is corrupt whether or not it has work.
	case active == 1:
		g.shards[lone].runShardWindow(limit)
	default:
		g.startWorkers()
		launched := 0
		for i, e := range g.shards {
			if e.NextEventTime() <= limit {
				g.cmd[i] <- shardWindow{limit}
				launched++
			}
		}
		for i := 0; i < launched; i++ {
			<-g.done
		}
		for i, p := range g.panicVal {
			if p != nil {
				g.panicVal[i] = nil
				panic(p)
			}
		}
	}
}

// startWorkers lazily spins up one goroutine per shard. Workers block on
// their command channel between rounds; a recovered panic is parked and
// re-raised on the Run goroutine once the round's barrier completes, so a
// model panic in any shard surfaces exactly like it would single-heap.
func (g *ShardGroup) startWorkers() {
	if g.started {
		return
	}
	g.started = true
	g.cmd = make([]chan shardWindow, len(g.shards))
	g.done = make(chan struct{}, len(g.shards))
	for i := range g.shards {
		g.cmd[i] = make(chan shardWindow)
		//rvmalint:allow goroutine -- kernel-internal shard worker; barriers keep exactly one goroutine per heap
		go g.worker(i, g.cmd[i], g.done)
	}
}

// worker receives its channels as parameters rather than re-reading the
// group's fields: stopWorkers nils g.cmd after closing the channels, and
// a worker goroutine that the host scheduler starts late must not race
// that write.
func (g *ShardGroup) worker(i int, cmd <-chan shardWindow, done chan<- struct{}) {
	for w := range cmd {
		func() {
			defer func() {
				if r := recover(); r != nil {
					g.panicVal[i] = r
				}
				done <- struct{}{}
			}()
			g.shards[i].runShardWindow(w.limit)
		}()
	}
}

func (g *ShardGroup) stopWorkers() {
	if !g.started {
		return
	}
	for i := range g.cmd {
		close(g.cmd[i])
	}
	g.started = false
	g.cmd = nil
}

// OutboxCount returns the number of cross-shard handoffs shard src has
// buffered but not yet delivered. Safe from the goroutine executing shard
// src's window (single-writer, same rule as Post); used by telemetry
// probes so per-shard queue-depth samples sum to the single-heap value —
// an in-flight handoff is pending work that the destination heap cannot
// see yet.
func (g *ShardGroup) OutboxCount(src int) int { return len(g.outbox[src]) }

// TotalPending sums model events pending across all shards.
func (g *ShardGroup) TotalPending() int {
	n := 0
	for _, e := range g.shards {
		n += e.Pending()
	}
	return n
}

// TotalExecuted sums model events executed across all shards.
func (g *ShardGroup) TotalExecuted() uint64 {
	var n uint64
	for _, e := range g.shards {
		n += e.executed
	}
	return n
}
