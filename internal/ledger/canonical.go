package ledger

import (
	"sort"

	"rvma/internal/sim"
)

// Canonical-mode ledger: a hash chain whose value is invariant under how
// the simulation was partitioned across shards.
//
// Neither an engine's sequence numbers nor its label ids survive sharding
// — each shard engine assigns its own sequence numbers and interns its own
// label table — and the global pop order itself is only defined up to the
// event ordering the heaps agree on. What *is* partition-invariant is the
// multiset of (time, priority, label-name) tuples per timestamp, plus the
// total order (time, then priority) that the engine guarantees between
// them: the fabric stamps every cross-component event with a globally
// unique priority, and same-(time, priority) ties are node-local, so
// sorting each timestamp's records by (priority, label-hash) reconstructs
// one canonical global order from any sharding. Records with identical
// tuples are interchangeable under the fold, so even their order is
// irrelevant. The chain folds (time, priority, label-name-hash) per
// record in that canonical order; epochs close every EpochEvents records
// at deterministic canonical pop indices.
//
// A canonical ledger from a 1-shard run and an 8-shard run of the same
// model are byte-identical — that equality is the artifact the sharded
// engine's determinism contract is checked against.

// canonRec is one canonical ledger record.
type canonRec struct {
	at   sim.Time
	pri  int
	lh   uint64 // FNV-1a hash of the label *name* (ids are per-engine)
	name string // resolved name, for window capture and label union
}

// canonLess is the canonical order: time, then priority, then label hash
// (a tie-break that only matters for distinct same-priority labels; fully
// identical tuples fold to the same chain in any order).
func canonLess(a, b *canonRec) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.pri != b.pri {
		return a.pri < b.pri
	}
	return a.lh < b.lh
}

// hashName is FNV-1a over the label name.
func hashName(s string) uint64 {
	h := fnvOffset
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// labelCache resolves a shard engine's label ids to (hash, name) once.
type labelCache struct {
	eng     *sim.Engine
	entries []canonRec // at/pri unused; lh and name per label id
}

func (c *labelCache) resolve(l sim.Label) (uint64, string) {
	for int(l) >= len(c.entries) {
		name := c.eng.LabelName(sim.Label(len(c.entries)))
		c.entries = append(c.entries, canonRec{lh: hashName(name), name: name})
	}
	e := &c.entries[l]
	return e.lh, e.name
}

// CanonicalRecorder accumulates the canonical chain. Use AttachGroup for
// a ShardGroup (per-shard buffers, merged and folded at every round
// barrier) or Attach for a lone engine (records stream through a
// per-timestamp batch; the kernel tests compare the group against it).
// Either attachment produces the same ledger for the same model.
type CanonicalRecorder struct {
	opts Options

	pops          uint64
	cur           uint64
	chain         uint64
	epochStartPop uint64
	epochs        []epochState

	winFrom uint64
	winTo   uint64
	winRecs []WindowRecord

	labels map[string]bool // union of label names across shards

	// Solo mode: one engine, per-timestamp batch.
	eng   *sim.Engine
	cache labelCache
	batch []canonRec
	prof  *profiler

	// Group mode: per-shard observers, folded at barriers.
	group  *sim.ShardGroup
	shards []*canonShardObs
	merged []canonRec // barrier merge scratch
}

// NewCanonicalRecorder returns a canonical recorder with the given
// options.
func NewCanonicalRecorder(opts Options) *CanonicalRecorder {
	if opts.EpochEvents == 0 {
		opts.EpochEvents = DefaultEpochEvents
	}
	return &CanonicalRecorder{
		opts:   opts,
		cur:    fnvOffset,
		chain:  fnvOffset,
		labels: map[string]bool{"-": true},
	}
}

// SetWindow arms full-resolution capture for canonical pop indices in
// [fromPop, toPop). Call before running.
func (r *CanonicalRecorder) SetWindow(fromPop, toPop uint64) {
	r.winFrom, r.winTo = fromPop, toPop
}

// Attach registers the recorder on a lone engine. The resulting ledger is
// identical to what AttachGroup yields for the same model at any shard
// count.
func (r *CanonicalRecorder) Attach(e *sim.Engine) {
	r.eng = e
	r.cache = labelCache{eng: e}
	if r.opts.Profile {
		r.prof = newProfiler()
	}
	e.SetExecObserver(r)
}

// ObserveExec implements sim.ExecObserver for solo mode: records buffer
// in a per-timestamp batch (model time never goes backward, so a new
// timestamp seals the previous batch for canonical sorting and folding).
func (r *CanonicalRecorder) ObserveExec(seq uint64, at sim.Time, priority int, label sim.Label) {
	if len(r.batch) > 0 && r.batch[0].at != at {
		r.flushBatch()
	}
	lh, name := r.cache.resolve(label)
	r.batch = append(r.batch, canonRec{at: at, pri: priority, lh: lh, name: name})
	if r.prof != nil {
		r.prof.observe(label)
	}
}

// flushBatch folds the pending timestamp's records in canonical order.
func (r *CanonicalRecorder) flushBatch() {
	b := r.batch
	sort.Slice(b, func(i, j int) bool { return canonLess(&b[i], &b[j]) })
	for i := range b {
		r.foldRec(&b[i])
	}
	r.batch = r.batch[:0]
}

// foldRec folds one record in canonical order into the chain, advancing
// the canonical pop index, epoch state, and window capture.
func (r *CanonicalRecorder) foldRec(rec *canonRec) {
	h := r.cur
	h = mix64(h, uint64(rec.at))
	h = mix64(h, uint64(int64(rec.pri)))
	h = mix64(h, rec.lh)
	r.cur = h

	pop := r.pops
	r.pops++
	r.labels[rec.name] = true
	if pop < r.winTo && pop >= r.winFrom {
		r.winRecs = append(r.winRecs, WindowRecord{
			Pop: pop, Seq: pop, TimePS: int64(rec.at), Pri: rec.pri, Label: rec.name,
		})
	}
	if r.pops-r.epochStartPop == r.opts.EpochEvents {
		r.closeEpoch()
	}
}

// closeEpoch seals the open epoch. Canonical mode has no engine seqs, so
// FirstSeq/LastSeq carry canonical pop indices.
func (r *CanonicalRecorder) closeEpoch() {
	digest := r.cur
	r.chain = mix64(r.chain, digest)
	r.epochs = append(r.epochs, epochState{
		events:   r.pops - r.epochStartPop,
		firstPop: r.epochStartPop,
		firstSeq: r.epochStartPop,
		lastSeq:  r.pops - 1,
		digest:   digest,
		chain:    r.chain,
	})
	r.cur = fnvOffset
	r.epochStartPop = r.pops
}

// canonShardObs is one shard's wiretap: it buffers records during a round
// window (single writer: the shard's worker) and hands them to the parent
// at the barrier.
type canonShardObs struct {
	parent *CanonicalRecorder
	cache  labelCache
	recs   []canonRec
	prof   *profiler
}

func (o *canonShardObs) ObserveExec(seq uint64, at sim.Time, priority int, label sim.Label) {
	lh, name := o.cache.resolve(label)
	o.recs = append(o.recs, canonRec{at: at, pri: priority, lh: lh, name: name})
	if o.prof != nil {
		o.prof.observe(label)
	}
}

// AttachGroup registers per-shard observers on every shard engine and a
// barrier hook that merges and folds each round's records. Rounds
// partition model pops into disjoint time ranges (a round executes
// everything below its horizon; later events sort at or above it), so
// folding round by round yields the same canonical order as a global
// sort.
func (r *CanonicalRecorder) AttachGroup(g *sim.ShardGroup) {
	r.group = g
	r.shards = make([]*canonShardObs, g.Shards())
	for i := range r.shards {
		o := &canonShardObs{parent: r, cache: labelCache{eng: g.Shard(i)}}
		if r.opts.Profile {
			o.prof = newProfiler()
		}
		r.shards[i] = o
		g.Shard(i).SetExecObserver(o)
	}
	g.OnBarrier(r.foldRound)
}

// foldRound merges all shards' round buffers into canonical order and
// folds them. Runs at the barrier with every shard quiescent.
func (r *CanonicalRecorder) foldRound() {
	all := r.merged[:0]
	for _, o := range r.shards {
		all = append(all, o.recs...)
		o.recs = o.recs[:0]
	}
	if len(all) == 0 {
		r.merged = all
		return
	}
	sort.Slice(all, func(i, j int) bool { return canonLess(&all[i], &all[j]) })
	for i := range all {
		r.foldRec(&all[i])
	}
	r.merged = all
}

// Events returns the number of canonical records folded so far.
func (r *CanonicalRecorder) Events() uint64 { return r.pops }

// Finalize seals the partial batch and tail epoch and returns the
// serializable ledger, marked Mode "canonical". Labels are the sorted
// union of label names across all shards, so the table is independent of
// per-engine interning order.
func (r *CanonicalRecorder) Finalize() *Ledger {
	if len(r.batch) > 0 {
		r.flushBatch()
	}
	if r.pops > r.epochStartPop {
		r.closeEpoch()
	}
	names := make([]string, 0, len(r.labels))
	for n := range r.labels {
		names = append(names, n)
	}
	sort.Strings(names)
	l := &Ledger{
		Version:     Version,
		Mode:        ModeCanonical,
		EpochEvents: r.opts.EpochEvents,
		Events:      r.pops,
		ChainHead:   hex64(r.chain),
		Run:         r.opts.Run,
		Labels:      names,
	}
	switch {
	case r.group != nil:
		l.FinalTimePS = int64(r.group.Shard(0).Now())
	case r.eng != nil:
		l.FinalTimePS = int64(r.eng.Now())
	}
	l.Epochs = make([]Epoch, len(r.epochs))
	for i, e := range r.epochs {
		l.Epochs[i] = Epoch{
			Epoch:    i,
			Events:   e.events,
			FirstPop: e.firstPop,
			FirstSeq: e.firstSeq,
			LastSeq:  e.lastSeq,
			Digest:   hex64(e.digest),
			Chain:    hex64(e.chain),
		}
	}
	if r.winTo > 0 {
		l.Window = &Window{FromPop: r.winFrom, ToPop: r.winTo, Records: r.winRecs}
	}
	return l
}

// Profile returns the host-time profile, or nil when profiling was not
// enabled. In group mode, per-shard profiles are merged by label name —
// host time is additive across workers, and the merged report answers
// the same shard-planner question the solo report does.
func (r *CanonicalRecorder) Profile() *ProfileReport {
	if r.group != nil {
		var reps []*ProfileReport
		for i, o := range r.shards {
			if o.prof == nil {
				return nil
			}
			reps = append(reps, o.prof.report(r.group.Shard(i).Labels()))
		}
		return mergeProfiles(reps)
	}
	if r.prof == nil {
		return nil
	}
	labels := []string{"-"}
	if r.eng != nil {
		labels = r.eng.Labels()
	}
	return r.prof.report(labels)
}

// mergeProfiles sums per-component host time and events across shard
// reports by label name.
func mergeProfiles(reps []*ProfileReport) *ProfileReport {
	byName := map[string]*ProfileEntry{}
	out := &ProfileReport{}
	for _, rep := range reps {
		out.TotalEvents += rep.TotalEvents
		out.TotalHostNS += rep.TotalHostNS
		for _, e := range rep.Components {
			m := byName[e.Label]
			if m == nil {
				m = &ProfileEntry{Label: e.Label}
				byName[e.Label] = m
			}
			m.Events += e.Events
			m.HostNS += e.HostNS
		}
	}
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		e := byName[name]
		if e.HostNS > 0 {
			e.EventsPerSec = float64(e.Events) / (float64(e.HostNS) / 1e9)
		}
		if out.TotalHostNS > 0 {
			e.Share = float64(e.HostNS) / float64(out.TotalHostNS)
		}
		out.Components = append(out.Components, *e)
	}
	sort.Slice(out.Components, func(a, b int) bool {
		ca, cb := out.Components[a], out.Components[b]
		if ca.HostNS != cb.HostNS {
			return ca.HostNS > cb.HostNS
		}
		if ca.Events != cb.Events {
			return ca.Events > cb.Events
		}
		return ca.Label < cb.Label
	})
	return out
}
