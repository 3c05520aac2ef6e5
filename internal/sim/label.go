package sim

// Label is an interned component identity for events. Labels are small
// integers indexing a per-engine string table, so stamping one on an event
// costs a 4-byte field write — no strings, no allocation — and two engines
// that intern the same names in the same order assign the same ids, which
// keeps ledger digests comparable across runs (cluster construction is
// deterministic, so interning order is too).
//
// Label zero is the unlabeled sentinel, rendered as "-".
type Label uint32

// NoLabel is the zero Label: events scheduled through the plain Engine
// methods (rather than a Tagged handle) carry it.
const NoLabel Label = 0

// unlabeledName is the string form of NoLabel.
const unlabeledName = "-"

// Tag interns name in the engine's label table and returns a Tagged handle
// that stamps every event it schedules with that label. Calling Tag twice
// with the same name returns handles carrying the same Label. Interning is
// cheap but not free (a map lookup), so components should Tag once at
// construction time and keep the handle, not Tag per event.
func (e *Engine) Tag(name string) Tagged {
	if e.labelIDs == nil {
		e.labels = append(e.labels, unlabeledName)
		e.labelIDs = map[string]Label{unlabeledName: NoLabel}
	}
	id, ok := e.labelIDs[name]
	if !ok {
		id = Label(len(e.labels))
		e.labels = append(e.labels, name)
		e.labelIDs[name] = id
	}
	return Tagged{Engine: e, label: id}
}

// Labels returns a copy of the engine's label table, indexed by Label.
// Index 0 is always the unlabeled sentinel "-". The ledger embeds this
// table in its output so digests (which hash label ids) can be rendered
// with names.
func (e *Engine) Labels() []string {
	if len(e.labels) == 0 {
		return []string{unlabeledName}
	}
	out := make([]string, len(e.labels))
	copy(out, e.labels)
	return out
}

// LabelName returns the interned name for l, or "-" for NoLabel and any
// id the engine never issued.
func (e *Engine) LabelName(l Label) string {
	if int(l) < len(e.labels) {
		return e.labels[l]
	}
	return unlabeledName
}

// Tagged is an Engine handle that stamps a component label on everything it
// schedules. It embeds the engine, so a component that stores one keeps the
// full Engine API (Now, RNG, Run, ...) through promotion; only the
// scheduling entry points are shadowed to add the label. Tagged is a small
// value (pointer + id): pass and store it by value.
//
// Call sites that must hand the raw engine to an API taking *Engine
// (Future.Complete, Resource.Acquire, ...) use the embedded Engine field
// directly: t.Engine.
type Tagged struct {
	*Engine
	label Label
}

// Label returns the interned label this handle stamps on events.
func (t Tagged) Label() Label { return t.label }

// LabelName returns the string form of the handle's label.
func (t Tagged) LabelName() string { return t.Engine.LabelName(t.label) }

// Retag returns a handle on the same engine carrying a different label.
// Components layered on another component's engine handle (a transport on
// an endpoint, say) use it to claim their own identity in the profile.
func (t Tagged) Retag(name string) Tagged { return t.Engine.Tag(name) }

// Schedule runs fn after delay d, stamped with the handle's label.
//
//rvmalint:hot
func (t Tagged) Schedule(d Time, fn func()) {
	t.Engine.schedule(d, 0, t.label, Func(fn), false)
}

// ScheduleP runs fn after delay d at the given priority, stamped with the
// handle's label.
//
//rvmalint:hot
func (t Tagged) ScheduleP(d Time, priority int, fn func()) {
	t.Engine.schedule(d, priority, t.label, Func(fn), false)
}

// At runs fn at absolute time tm, stamped with the handle's label.
//
//rvmalint:hot
func (t Tagged) At(tm Time, fn func()) {
	t.Engine.atModel(tm, 0, t.label, Func(fn))
}

// AtP runs fn at absolute time tm with an explicit priority, stamped with
// the handle's label.
//
//rvmalint:hot
func (t Tagged) AtP(tm Time, priority int, fn func()) {
	t.Engine.atModel(tm, priority, t.label, Func(fn))
}

// ScheduleH is Schedule for a Handler: the event fires h after delay d.
// The H variants are how a component schedules its own bound record, a
// packet or a stage, without making a func per event.
//
//rvmalint:hot
func (t Tagged) ScheduleH(d Time, h Handler) {
	t.Engine.schedule(d, 0, t.label, h, false)
}

// AtH is At for a Handler: the event fires h at absolute time tm.
//
//rvmalint:hot
func (t Tagged) AtH(tm Time, h Handler) {
	t.Engine.atModel(tm, 0, t.label, h)
}

// AtPH is AtP for a Handler. The fabric uses it to give every packet
// event a globally unique (negative) priority, which makes
// cross-component event order a pure function of (time, priority) — the
// property the sharded engine's deterministic handoff relies on.
//
//rvmalint:hot
func (t Tagged) AtPH(tm Time, priority int, h Handler) {
	t.Engine.atModel(tm, priority, t.label, h)
}

// ScheduleDaemonP schedules a daemon event stamped with the handle's label.
// Daemon pops are never reported to the exec observer, so the label only
// aids simdebug diagnostics.
//
//rvmalint:hot
func (t Tagged) ScheduleDaemonP(d Time, priority int, fn func()) {
	t.Engine.schedule(d, priority, t.label, Func(fn), true)
}

// ExecObserver receives one callback per executed model event, in execution
// order, before the event's handler runs. Daemon events (telemetry riders)
// are never reported, so an observer sees the same stream whether or not
// instrumentation daemons are attached. The callback runs on the engine
// goroutine; implementations must not schedule events, draw from the RNG,
// or mutate model state — the ledger treats this as a read-only wiretap on
// the pop stream.
type ExecObserver interface {
	ObserveExec(seq uint64, at Time, priority int, label Label)
}

// SetExecObserver attaches obs to the engine's execution stream (nil
// detaches). The disabled path costs one nil-check per event and allocates
// nothing, so model results are byte-identical with the observer on or off:
// the observer only reads fields every pop already carries.
func (e *Engine) SetExecObserver(obs ExecObserver) { e.execObs = obs }
