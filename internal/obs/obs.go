// Package obs is the tracing and metrics layer threaded through every
// simulated substrate: the engine (event fire/cancel), the wire
// simulator (packet lifecycle: inject, per-hop arrival, drop with
// reason, delivery), the NIC models (doorbells, NACKs, resends, stale
// duplicates, group install/uninstall) and the communicator (one span
// per completed op of every group, split into queue-wait and in-flight
// phases, which also feeds the per-group op count and latency
// histogram).
//
// The hot-path contract is strict: a disabled tracer is a nil pointer,
// and every instrumented site costs exactly one nil check. An enabled
// tracer writes fixed-size records into preallocated per-track ring
// buffers — no allocation per record after warmup — so the zero-alloc
// gates hold with tracing on as well. Tracing only observes: it never
// schedules engine events, charges simulated time, or touches an RNG,
// so virtual-time results are bit-identical with or without it.
//
// A Tracer is the process-side collector; each simulated cluster gets
// its own Scope (one chrome "process"), and within a scope each node,
// NIC and tenant gets its own Track (one chrome "thread"). Scope
// creation is mutex-protected so parallel harness sweeps can share one
// Tracer; record emission within a scope is single-goroutine, like the
// engine it observes.
package obs

import (
	"fmt"
	"sync"

	"nicbarrier/internal/sim"
)

// Kind classifies one trace record.
type Kind uint8

// Record kinds, grouped by layer.
const (
	// Wire layer (netsim).
	KindPktInject Kind = iota
	KindPktHop
	KindPktDeliver
	KindPktDrop
	// NIC layer (myrinet MCP / Elan chains).
	KindDoorbell
	KindNack
	KindResend
	KindStale
	KindInstall
	KindUninstall
	KindComplete
	// Engine layer (sim).
	KindEventFired
	KindEventCancelled
	// Communicator layer: an op's queue-wait and in-flight phases.
	KindOpQueue
	KindOpRun
	// Recovery layer: a deadline expiry, a member eviction and a
	// retried run (comm.RecoveryConfig).
	KindOpTimeout
	KindEvict
	KindRetry
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindPktInject:
		return "pkt-inject"
	case KindPktHop:
		return "pkt-hop"
	case KindPktDeliver:
		return "pkt-deliver"
	case KindPktDrop:
		return "pkt-drop"
	case KindDoorbell:
		return "doorbell"
	case KindNack:
		return "nack"
	case KindResend:
		return "resend"
	case KindStale:
		return "stale"
	case KindInstall:
		return "group-install"
	case KindUninstall:
		return "group-uninstall"
	case KindComplete:
		return "complete"
	case KindEventFired:
		return "event-fire"
	case KindEventCancelled:
		return "event-cancel"
	case KindOpQueue:
		return "op-queue"
	case KindOpRun:
		return "op-run"
	case KindOpTimeout:
		return "op-timeout"
	case KindEvict:
		return "evict"
	case KindRetry:
		return "retry"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// DropReason classifies a packet discard for the trace record and the
// drop-reason breakdown.
type DropReason uint8

// Drop reasons. Rejected takes precedence (a mid-route reject records
// as Rejected); Injected vs MidRoute partition the silent drops.
const (
	DropInjected DropReason = iota // discarded at injection by an inject-time impairment
	DropMidRoute                   // discarded mid-route by a per-hop impairment
	DropRejected                   // discarded with reject semantics
	DropFailStop                   // discarded because an endpoint fail-stop crashed

	// dropReasons is the number of reasons, sizing the per-group
	// breakdown array.
	dropReasons = int(DropFailStop) + 1
)

// String implements fmt.Stringer.
func (r DropReason) String() string {
	switch r {
	case DropInjected:
		return "injected"
	case DropMidRoute:
		return "mid-route"
	case DropRejected:
		return "rejected"
	case DropFailStop:
		return "fail-stop"
	default:
		return fmt.Sprintf("DropReason(%d)", int(r))
	}
}

// record is one fixed-size trace record. Label must be a constant (or
// otherwise long-lived) string: records only reference it.
type record struct {
	At     sim.Time
	Dur    sim.Duration // nonzero only for span kinds (OpQueue/OpRun)
	Kind   Kind
	Reason DropReason // KindPktDrop only
	Src    int32
	Dst    int32
	Group  int32
	Arg    int64
	Label  string
}

// ring is a fixed-capacity record buffer that overwrites its oldest
// entries when full; total counts every record ever written.
type ring struct {
	recs  []record
	next  int
	total uint64
}

func (r *ring) add(rec record) {
	r.recs[r.next] = rec
	r.next++
	if r.next == len(r.recs) {
		r.next = 0
	}
	r.total++
}

// snapshot returns the retained records oldest-first.
func (r *ring) snapshot() []record {
	if r.total <= uint64(len(r.recs)) {
		out := make([]record, r.next)
		copy(out, r.recs[:r.next])
		return out
	}
	out := make([]record, 0, len(r.recs))
	out = append(out, r.recs[r.next:]...)
	out = append(out, r.recs[:r.next]...)
	return out
}

// Track is one timeline in the trace — a node, a NIC, a tenant, or a
// scope's engine. It renders as one chrome://tracing thread.
type Track struct {
	name string
	tid  int
	ring ring
}

// Name reports the track's display name.
func (t *Track) Name() string { return t.name }

func (t *Track) emit(rec record) { t.ring.add(rec) }

// groupStats accumulates per-group (per-tenant) metrics: operation
// counts, the latency histogram, and the queue/wire/NIC attribution
// sums behind the latency-decomposition table.
type groupStats struct {
	kind    string // op label ("barrier", ...), set by the first span
	ops     uint64
	queueNS int64
	wireNS  int64
	nicNS   int64
	sent    uint64
	dropped uint64
	// drops splits dropped by DropReason (indexed by the reason).
	drops [dropReasons]uint64
	// Recovery accounting, counted off the Lifecycle records.
	timeouts  uint64
	evictions uint64
	retries   uint64
	// tenant is the bound workload-wide tenant index plus one (0 means
	// unbound), so sharded runs can merge one tenant's metrics across
	// shard-local group IDs. See Scope.BindGroupTenant.
	tenant int
	lat    Histogram
}

// Scope is one simulated cluster's tracing domain: its tracks, its
// engine counters, and its per-group metric accumulators. A Scope is
// written by a single goroutine (the one driving its engine); distinct
// scopes of one Tracer may run concurrently. Mid-run reads go through
// the publication machinery in live.go (Publish/Live); only at
// quiescence may other goroutines read the accumulators directly.
type Scope struct {
	liveState

	tr   *Tracer
	name string
	pid  int
	tids int

	engine  *Track
	nodes   []*Track
	nics    []*Track
	tenants []*Track
	groups  []groupStats // indexed by group ID

	eventsFired     uint64
	eventsCancelled uint64
}

// Name reports the scope's display name.
func (s *Scope) Name() string { return s.name }

func (s *Scope) newTrack(name string) *Track {
	s.tids++
	return &Track{name: name, tid: s.tids, ring: ring{recs: make([]record, s.tr.perTrack)}}
}

// trackAt returns (lazily creating) the i-th track of a family. The
// slice grows on first sight of an index — setup/warmup cost, never
// steady state.
func (s *Scope) trackAt(list *[]*Track, i int, prefix string) *Track {
	for len(*list) <= i {
		*list = append(*list, nil)
	}
	if (*list)[i] == nil {
		(*list)[i] = s.newTrack(fmt.Sprintf("%s %d", prefix, i))
	}
	return (*list)[i]
}

// NodeTrack returns host i's wire-event track.
func (s *Scope) NodeTrack(i int) *Track { return s.trackAt(&s.nodes, i, "node") }

// NICTrack returns NIC i's firmware-event track.
func (s *Scope) NICTrack(i int) *Track { return s.trackAt(&s.nics, i, "nic") }

// TenantTrack returns group gid's op-span track.
func (s *Scope) TenantTrack(gid int) *Track { return s.trackAt(&s.tenants, gid, "tenant") }

// EngineTrack returns the scope's engine timeline.
func (s *Scope) EngineTrack() *Track {
	if s.engine == nil {
		s.engine = s.newTrack("engine")
	}
	return s.engine
}

func (s *Scope) group(gid int) *groupStats {
	if gid < 0 {
		gid = 0
	}
	for len(s.groups) <= gid {
		s.groups = append(s.groups, groupStats{})
	}
	return &s.groups[gid]
}

// --- wire layer ---

// PktInject records a packet entering the network at its source.
func (s *Scope) PktInject(at sim.Time, src, dst, group int, kind string) {
	if src < 0 {
		return
	}
	s.group(group).sent++
	s.NodeTrack(src).emit(record{At: at, Kind: KindPktInject,
		Src: int32(src), Dst: int32(dst), Group: int32(group), Label: kind})
}

// PktHop records the packet head entering link at hop index hop.
func (s *Scope) PktHop(at sim.Time, src, dst, group, link, hop int) {
	if src < 0 {
		return
	}
	s.NodeTrack(src).emit(record{At: at, Kind: KindPktHop,
		Src: int32(src), Dst: int32(dst), Group: int32(group), Arg: int64(link)<<16 | int64(hop)})
}

// PktDeliver records the packet's last byte arriving at its destination.
func (s *Scope) PktDeliver(at sim.Time, src, dst, group int, kind string) {
	if dst < 0 {
		return
	}
	s.NodeTrack(dst).emit(record{At: at, Kind: KindPktDeliver,
		Src: int32(src), Dst: int32(dst), Group: int32(group), Label: kind})
}

// PktDrop records a discard with its reason, on the source's track.
func (s *Scope) PktDrop(at sim.Time, src, dst, group int, kind string, reason DropReason) {
	g := s.group(group)
	g.dropped++
	g.drops[reason]++
	if src < 0 {
		return
	}
	s.NodeTrack(src).emit(record{At: at, Kind: KindPktDrop, Reason: reason,
		Src: int32(src), Dst: int32(dst), Group: int32(group), Label: kind})
}

// WireTime attributes d of wire occupancy (head latency plus
// serialization) to group's decomposition bucket.
func (s *Scope) WireTime(group int, d sim.Duration) {
	s.group(group).wireNS += int64(d)
}

// --- NIC layer ---

// NICEvent records a firmware-level event (doorbell, NACK, resend,
// stale duplicate, install/uninstall, completion) on node's NIC track.
func (s *Scope) NICEvent(at sim.Time, node, group int, k Kind, arg int64) {
	if node < 0 {
		return
	}
	s.NICTrack(node).emit(record{At: at, Kind: k,
		Src: int32(node), Group: int32(group), Arg: arg})
}

// NICTime attributes d of NIC processing to group's decomposition
// bucket.
func (s *Scope) NICTime(group int, d sim.Duration) {
	s.group(group).nicNS += int64(d)
}

// --- engine layer: sim.EventObserver ---

// EventFired implements sim.EventObserver. It is also the metronome's
// clock source: the check costs one comparison when the metronome is
// disarmed and allocates nothing between ticks when armed.
func (s *Scope) EventFired(at sim.Time) {
	s.eventsFired++
	s.EngineTrack().emit(record{At: at, Kind: KindEventFired})
	if s.metroEvery > 0 && at >= s.metroNext {
		s.metroTick(at)
	}
}

// EventCancelled implements sim.EventObserver.
func (s *Scope) EventCancelled(at sim.Time) {
	s.eventsCancelled++
	s.EngineTrack().emit(record{At: at, Kind: KindEventCancelled})
}

// --- communicator layer ---

// OpSpan records one completed operation of group gid, live at its
// completion instant: a queue-wait phase from eligible to start and an
// in-flight phase from start to done. It counts the op and feeds the
// group's latency histogram and decomposition queue bucket. opKind must
// be a long-lived string ("barrier", ...).
func (s *Scope) OpSpan(gid int, opKind string, eligible, start, done sim.Time) {
	if start < eligible {
		start = eligible
	}
	if done < start {
		done = start
	}
	g := s.group(gid)
	g.kind = opKind
	g.ops++
	g.queueNS += int64(start.Sub(eligible))
	g.lat.Observe(done.Sub(eligible))
	tr := s.TenantTrack(gid)
	if start > eligible {
		tr.emit(record{At: eligible, Dur: start.Sub(eligible), Kind: KindOpQueue,
			Group: int32(gid), Label: opKind})
	}
	tr.emit(record{At: start, Dur: done.Sub(start), Kind: KindOpRun,
		Group: int32(gid), Label: opKind})
}

// Lifecycle records a recovery-layer event for group gid on its tenant
// track: a deadline expiry (KindOpTimeout, arg = stalled op sequence),
// a member eviction (KindEvict, arg = evicted node ID) or a retried run
// (KindRetry, arg = retry attempt number). The per-group counters
// behind the snapshot's recovery breakdown accumulate here too.
func (s *Scope) Lifecycle(at sim.Time, gid int, k Kind, arg int64) {
	g := s.group(gid)
	switch k {
	case KindOpTimeout:
		g.timeouts++
	case KindEvict:
		g.evictions++
	case KindRetry:
		g.retries++
	}
	s.TenantTrack(gid).emit(record{At: at, Kind: k, Group: int32(gid), Arg: arg})
}

// BindGroupTenant labels group gid with its workload-wide tenant
// index, so snapshots of sharded runs — where each shard numbers its
// groups locally — can merge one tenant's metrics across scopes (see
// Snapshot.MergeTenants). Binding is observational; rebinding
// overwrites.
func (s *Scope) BindGroupTenant(gid, tenant int) {
	if tenant < 0 {
		return
	}
	s.group(gid).tenant = tenant + 1
}

// Tracer is the collector behind every Scope. The zero value is not
// usable; construct with NewTracer.
type Tracer struct {
	mu       sync.Mutex
	perTrack int
	scopes   []*Scope
	// metroEvery is the default metronome interval stamped onto newly
	// created scopes; see Tracer.SetMetronome in live.go.
	metroEvery sim.Duration
}

// defaultPerTrack is the per-track ring capacity: each track retains
// its most recent records up to this count.
const defaultPerTrack = 4096

// NewTracer returns a tracer whose tracks retain the default number of
// records each.
func NewTracer() *Tracer { return NewTracerSize(defaultPerTrack) }

// NewTracerSize returns a tracer whose tracks each retain the last
// perTrack records.
func NewTracerSize(perTrack int) *Tracer {
	if perTrack < 1 {
		panic(fmt.Sprintf("obs: perTrack = %d", perTrack))
	}
	return &Tracer{perTrack: perTrack}
}

// NewScope creates a named tracing domain for one simulated cluster.
// Safe for concurrent use; the returned scope itself is not.
func (tr *Tracer) NewScope(name string) *Scope {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	s := &Scope{tr: tr, name: name, pid: len(tr.scopes) + 1}
	s.metroEvery = tr.metroEvery
	tr.scopes = append(tr.scopes, s)
	return s
}

// Scopes returns the scopes created so far, in creation order. Callers
// must not read scope contents while a simulation is still writing
// them.
func (tr *Tracer) Scopes() []*Scope {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := make([]*Scope, len(tr.scopes))
	copy(out, tr.scopes)
	return out
}
