// Package comm is the multi-tenant communicator subsystem layered over
// the simulated interconnects. Where the measurement sessions in
// internal/myrinet and internal/elan drive one process group at a time,
// a comm.Cluster multiplexes many Groups over one cluster: each group
// claims its own NIC group-queue slot (a hard SRAM resource), owns its
// own bit-vector records and sequence space, and completes independently,
// exactly the concurrency the paper's per-group queues were designed for.
// Contention between tenants arises naturally from the substrates: the
// single NIC firmware processor serializes handlers of co-resident
// groups, and netsim's link occupancy charges worms that share trunks.
//
// Each Group drives its members through the backend session's shared
// run driver (core.Session), held directly; everything else the layer
// needs of an interconnect — node count, free slots, which kinds and
// schemes it models or can recover, install, tracer and heartbeat hooks,
// network counters — goes through the unexported backend interface
// (backend.go), one adapter per model. No code here branches on which
// model a Cluster runs.
//
// Groups are a full lifecycle, not a one-way allocation: Close drains
// and uninstalls a group, returning its slots (teardown cost charged on
// the member NICs), Reconfigure swaps a group's membership via
// install-new/handoff-sequence/uninstall-old, and the admission
// controller in sched.go decides what happens when slots run out —
// error, queue until a departure frees them, or re-place the group on
// members with capacity (see AdmissionConfig).
//
// On top, workload.go generates open- and closed-loop streams of
// collective operations from N tenants (RunWorkload) and churns whole
// tenants through arrive/run/depart/reconfigure lifecycles (RunChurn),
// reporting throughput of virtual time, per-tenant latency percentiles,
// fairness and admission statistics.
//
// workload_shard.go parallelizes both generators across replica
// clusters: RunWorkloadSharded and RunChurnSharded plan the full tenant
// population once (same RNG draw order as the single-cluster path),
// deal tenants round-robin across the shards, run every shard on its
// own engine goroutine, and merge per-shard results into one report in
// deterministic global-tenant order. A one-shard call is exactly the
// single-cluster run, bit for bit; see ARCHITECTURE.md for the
// partitioning model and its fidelity trade.
package comm

import (
	"fmt"

	"nicbarrier/internal/barrier"
	"nicbarrier/internal/core"
	"nicbarrier/internal/elan"
	"nicbarrier/internal/myrinet"
	"nicbarrier/internal/obs"
	"nicbarrier/internal/sim"
)

// OpKind selects the collective operation a group executes.
type OpKind int

// Collective operation kinds.
const (
	OpBarrier OpKind = iota
	OpBroadcast
	OpAllreduce
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpBarrier:
		return "barrier"
	case OpBroadcast:
		return "broadcast"
	case OpAllreduce:
		return "allreduce"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Cluster multiplexes process groups over one simulated cluster. Exactly
// one of My and El is set; the layer reaches it only through be. A
// Cluster (like everything below the engine) is single-threaded;
// independent Clusters on independent engines may run from parallel
// goroutines.
type Cluster struct {
	Eng *sim.Engine
	My  *myrinet.Cluster
	El  *elan.Cluster
	be  backend

	nextGID core.GroupID
	groups  []*Group
	sched   *sched

	// tr, when non-nil, is the observability scope the workload engines
	// emit per-operation spans and per-tenant metrics into.
	tr *obs.Scope

	// hbRoute routes heartbeat deliveries and NACK-stall signals to the
	// recovery that owns each group ID; nil until the first SetRecovery
	// (see recovery.go).
	hbRoute map[core.GroupID]*recovery
}

// SetTracer attaches an observability scope to the communicator layer
// and its backend cluster (network packet lifecycle, NIC firmware
// events, per-op spans from the workload engines). nil detaches.
func (c *Cluster) SetTracer(sc *obs.Scope) {
	c.tr = sc
	c.be.setTracer(sc)
}

// SetMetronome arms periodic live snapshot publication on the attached
// observability scope: every `every` of virtual time (checked as engine
// events fire), the scope publishes an epoch-stamped snapshot that
// other goroutines may read mid-run (obs.Scope.Live). The metronome is
// observational only — it schedules nothing and charges no simulated
// time, so virtual-time results stay bit-identical. It requires a
// tracer (SetTracer) and installs the scope as the engine's observer;
// without a tracer it is a no-op. 0 disarms.
func (c *Cluster) SetMetronome(every sim.Duration) {
	if c.tr == nil {
		return
	}
	c.tr.SetMetronome(every)
	c.Eng.SetObserver(c.tr)
}

// OverMyrinet builds a communicator layer over a Myrinet cluster.
func OverMyrinet(cl *myrinet.Cluster) *Cluster {
	c := &Cluster{Eng: cl.Eng, My: cl, be: myrinetBackend{cl}, nextGID: myrinet.SessionGroupID}
	c.sched = newSched(c, cl.Prof.NIC.GroupQueueSlots)
	return c
}

// OverElan builds a communicator layer over a Quadrics cluster.
func OverElan(cl *elan.Cluster) *Cluster {
	c := &Cluster{Eng: cl.Eng, El: cl, be: elanBackend{cl}, nextGID: elan.SessionGroupID}
	c.sched = newSched(c, cl.Prof.NIC.ChainSlots)
	return c
}

// Nodes reports the underlying cluster size.
func (c *Cluster) Nodes() int { return c.be.nodes() }

// Groups returns every group created so far, in creation order
// (including closed and still-queued ones).
func (c *Cluster) Groups() []*Group { return c.groups }

// GroupConfig describes one communicator to create.
type GroupConfig struct {
	// Members lists the participating node IDs in rank order; they must
	// be distinct and at least 2 (the substrates do not model self-sends).
	Members []int
	// Kind is the collective the group will run. Broadcast and allreduce
	// ride the Myrinet collective protocol; on Quadrics only barriers are
	// modeled (the paper's chained-RDMA list is a barrier structure).
	Kind OpKind
	// Algorithm and Options pick the schedule (barrier/allreduce kinds).
	Algorithm barrier.Algorithm
	Options   barrier.Options
	// MyrinetScheme selects the barrier scheme on Myrinet backends
	// (host, direct, collective); broadcast and allreduce force the
	// collective protocol. Ignored on Quadrics.
	MyrinetScheme myrinet.Scheme
	// ElanScheme selects the Quadrics implementation (chained, gsync,
	// hw). Ignored on Myrinet.
	ElanScheme elan.Scheme
	// Root and Degree shape broadcast trees (Degree 0 means 4).
	Root, Degree int
	// Reduce and Contrib configure allreduce groups: the combining
	// operator and each rank's per-iteration contribution.
	Reduce  core.ReduceOp
	Contrib func(rank, iter int) int64
}

// Group is one communicator: a subset of nodes with its own NIC
// group-queue slot, bit-vector records and sequence space. Groups on one
// Cluster run concurrently; each is driven either exclusively (Run) or
// as part of a workload (Launch + the cluster-level drive loop).
//
// A group's lifecycle is install -> run(s) -> Close (or Reconfigure
// between runs). Under the queueing admission policy a group may exist
// before it is installed: ID stays 0 and Launch is deferred until a
// departure frees the slots it needs.
type Group struct {
	c       *Cluster
	ID      core.GroupID
	Members []int
	Kind    OpKind

	// gc is the configuration the group was admitted with, with Members
	// tracking placement and reconfiguration; Reconfigure reuses it.
	gc GroupConfig

	sess     *core.Session
	launched bool
	closed   bool
	closing  bool // Close requested while a run was in flight

	// userOnDone is the workload engine's completion observer,
	// multiplexed under the group's own onIterDone.
	userOnDone func(iter int, at sim.Time)

	// pendingIters holds a Launch that arrived while the install was
	// still queued; it replays when the scheduler installs the group.
	pendingIters int
	// queuedAt/installedAt record admission timing for the queueing
	// policy's wait statistics; queueWaitUS is the served wait, frozen
	// when the deferred install lands (installedAt moves again on
	// Reconfigure, the wait must not).
	queuedAt    sim.Time
	installedAt sim.Time
	queueWaitUS float64

	// opsDone counts globally completed operations across runs AND
	// reconfigurations — the group-level sequence the handoff preserves
	// when membership swaps (each backend session numbers its own
	// operations from 0; the group keeps the cumulative count).
	opsDone int

	// pace shapes the group's operation stream during workloads.
	pace pacer

	// rec is the group's fail-stop survival machinery; nil unless
	// SetRecovery was called (see recovery.go).
	rec *recovery
	// evictedNodes lists node IDs removed by Evict, in order.
	evictedNodes []int
}

// NewGroup creates a communicator over the given members, installing its
// group-queue entry on every member NIC. When a member NIC's slots are
// exhausted the admission policy decides the outcome: fail cleanly with
// the cluster untouched (AdmitError, the default), queue the install
// until a Close frees slots (AdmitQueue), or place the group on
// alternate members with free slots (AdmitSpread/AdmitPack). Invalid
// member lists and inexact op/operator combinations always fail.
func (c *Cluster) NewGroup(gc GroupConfig) (*Group, error) {
	if len(gc.Members) < 1 {
		return nil, fmt.Errorf("comm: empty group")
	}
	g := &Group{c: c, Kind: gc.Kind}
	if err := c.sched.admit(g, gc); err != nil {
		return nil, err
	}
	c.groups = append(c.groups, g)
	return g, nil
}

// attach wires the group's completion multiplexer and pacing hooks into
// a freshly bound session; called after every install (initial, queued,
// or reconfiguration).
func (g *Group) attach() {
	g.sess.OnIterDone = g.onIterDone
	g.applyPace()
}

// onIterDone observes every globally completed operation: it advances
// the group-level sequence, forwards to the workload engine's observer,
// and finalizes a deferred Close once the run has drained.
func (g *Group) onIterDone(iter int, at sim.Time) {
	g.opsDone++
	if g.c.tr != nil {
		g.c.tr.OpDone(int(g.ID))
	}
	if g.rec != nil {
		g.rec.onProgress(iter, at)
	}
	if g.userOnDone != nil {
		g.userOnDone(iter, at)
	}
	if g.closing && g.sess.Done() {
		g.finalizeClose()
	}
}

// SetOnIterDone registers fn to observe each operation's global
// completion (all members done) at the virtual time it happens; nil
// unregisters. Workload engines drive departures and reconfigurations
// from this hook.
func (g *Group) SetOnIterDone(fn func(iter int, at sim.Time)) { g.userOnDone = fn }

// applyPace (re)installs the group's pacer as the session's NextAt gate;
// safe to call while the install is still queued (attach applies it when
// the session materializes).
func (g *Group) applyPace() {
	if g.sess != nil && g.pace.active() {
		g.sess.NextAt = g.pace.nextAt
	}
}

// Size reports the number of ranks in the group.
func (g *Group) Size() int { return len(g.Members) }

// Installed reports whether the group holds its NIC resources (false
// while an AdmitQueue install waits for slots, and after Close).
func (g *Group) Installed() bool { return g.sess != nil && !g.closed }

// Closed reports whether the group has been torn down.
func (g *Group) Closed() bool { return g.closed }

// OpsCompleted is the group-level operation sequence: how many
// operations completed globally across runs and reconfigurations. The
// membership handoff preserves it — a group that runs 10 ops,
// reconfigures, and runs 10 more reports 20.
func (g *Group) OpsCompleted() int { return g.opsDone }

// QueueWaitUS reports how long the group's install waited in the
// admission queue, in simulated microseconds (0 for immediate installs;
// valid once Installed).
func (g *Group) QueueWaitUS() float64 { return g.queueWaitUS }

// Run executes iters consecutive operations exclusively: the engine is
// driven until the group finishes. It returns per-iteration completion
// times and panics if the simulation deadlocks — identical semantics
// (and identical virtual-time behavior) to the one-shot measurement
// sessions it wraps.
func (g *Group) Run(iters int) []sim.Time {
	if g.closed {
		panic("comm: Run on a closed group")
	}
	if g.sess == nil {
		panic("comm: Run on a queued group (drive the cluster until it installs)")
	}
	if g.rec != nil {
		panic("comm: Run on a recovery-enabled group (use RunDeadline)")
	}
	g.launched = true
	return g.sess.Run(iters)
}

// Launch posts the group's first operation without driving the engine;
// the caller multiplexes several launched groups with DriveAll. On a
// group whose install is still queued, the launch is recorded and
// replayed the moment the scheduler installs it.
func (g *Group) Launch(iters int) {
	if g.closed {
		panic("comm: Launch on a closed group")
	}
	if iters < 1 {
		panic(fmt.Sprintf("comm: Launch iterations %d", iters))
	}
	if g.sess == nil {
		// Same loud double-launch contract as the installed path: a
		// second Launch would silently overwrite the recorded replay.
		if g.launched {
			panic("comm: group launched twice (Reset between runs)")
		}
		g.launched = true
		g.pendingIters = iters
		return
	}
	g.launched = true
	g.launchSess(iters)
}

// launchSess posts iters operations on the bound session and arms the
// recovery machinery when configured; the single funnel for every
// launch path (direct, queued replay, recovery relaunch).
func (g *Group) launchSess(iters int) {
	g.sess.Launch(iters)
	if g.rec != nil {
		g.rec.onLaunch(iters)
	}
}

// Done reports whether every launched operation completed.
func (g *Group) Done() bool {
	return g.sess != nil && g.pendingIters == 0 && g.sess.Done()
}

// DoneAt returns per-iteration completion times (valid once Done).
func (g *Group) DoneAt() []sim.Time { return g.sess.DoneAt() }

// StartAt returns per-iteration first-post times for the current run
// (-1 where not yet posted); see core.Session.StartAt.
func (g *Group) StartAt() []sim.Time { return g.sess.StartAt() }

// Reset readies a finished group for another Run or Launch: the NIC
// group-queue entry stays installed and its sequence space continues,
// only the run bookkeeping clears (DriveAll no longer waits on the
// group until it launches again).
func (g *Group) Reset() {
	if g.sess == nil {
		panic("comm: Reset on a queued group (its install has not been served)")
	}
	g.sess.Reset()
	g.launched = false
}

// Close tears the group down, freeing its NIC group-queue slots for
// future installs (the teardown cost charged on each member NIC's
// processor). If a run is still in flight the close is deferred until
// the launched operations drain — the slots are freed at the completion
// of the last one. Closing an already-closed group is a no-op; closing
// a still-queued group simply withdraws it from the admission queue.
// Freed slots immediately unblock queued installs.
func (g *Group) Close() error {
	if g.closed {
		return nil
	}
	if g.sess == nil {
		g.c.sched.withdraw(g)
		g.closed = true
		return nil
	}
	if g.launched && !g.sess.Done() {
		g.closing = true
		return nil
	}
	g.finalizeClose()
	return nil
}

// finalizeClose performs the actual teardown; the run has drained.
func (g *Group) finalizeClose() {
	g.closing = false
	g.closed = true
	if g.rec != nil {
		g.rec.stop()
	}
	g.sess.Close()
	g.c.sched.release(g.gc, g.Members)
}

// Reconfigure swaps the group's membership to newMembers, implemented as
// the protocol-honest install-new/handoff-sequence/uninstall-old: the
// bit-vector records assume fixed membership, so the swap installs a
// fresh group (new group ID, fresh NIC slots on the new members), hands
// the group-level operation sequence over (OpsCompleted keeps counting
// across the swap; the new session numbers its own operations from 0),
// and uninstalls the old group's slots. Make-before-break means a node
// in both memberships transiently needs two slots; if any new-member NIC
// cannot take the install, the group is left untouched on its old
// membership and the error returned. The group must be idle — between
// runs, with launched operations drained.
func (g *Group) Reconfigure(newMembers []int) error {
	if g.closed {
		return fmt.Errorf("comm: Reconfigure on a closed group")
	}
	if g.sess == nil {
		return fmt.Errorf("comm: Reconfigure on a queued group (wait for its install)")
	}
	if g.launched && !g.sess.Done() {
		return fmt.Errorf("comm: Reconfigure mid-run (drain the launched operations first)")
	}
	if len(newMembers) < 1 {
		return fmt.Errorf("comm: Reconfigure to an empty membership")
	}
	gc := g.gc
	gc.Members = newMembers
	if err := g.c.sched.preflight(gc); err != nil {
		return err
	}
	oldSess, oldGC, oldMembers, oldID := g.sess, g.gc, g.Members, g.ID
	if err := g.c.sched.install(g, gc); err != nil {
		g.sess, g.gc, g.Members, g.ID = oldSess, oldGC, oldMembers, oldID
		return err
	}
	g.launched = false
	oldSess.Close()
	g.c.sched.release(oldGC, oldMembers)
	return nil
}

// Results returns allreduce outcomes per iteration and rank; nil for
// other group kinds.
func (g *Group) Results() [][]int64 {
	if g.sess == nil {
		return nil
	}
	return g.sess.Results()
}

// DriveAll runs the engine until every *launched* group completes,
// panicking with a per-group diagnostic if the simulation deadlocks
// (e.g. a fault plan crashed a member for good, or queued installs wait
// on slots nothing will free). Groups that were created but never
// launched — e.g. the survivors of a workload setup that failed partway
// — are not waited on; neither are closed groups.
func (c *Cluster) DriveAll() {
	// A recovering group is waited on through its whole deadline run
	// (rec.inFlight), including abort/backoff windows where it is
	// momentarily not launched; a terminally failed one clears
	// inFlight and is abandoned — its error is on Err().
	waiting := func(g *Group) bool {
		if g.rec != nil {
			return g.rec.inFlight
		}
		return g.launched && !g.closed && !g.Done()
	}
	done := func() bool {
		for _, g := range c.groups {
			if waiting(g) {
				return false
			}
		}
		return true
	}
	if !c.Eng.RunCondition(done) {
		var stuck []core.GroupID
		var queued int
		for _, g := range c.groups {
			if waiting(g) {
				stuck = append(stuck, g.ID)
				if g.sess == nil {
					queued++
				}
			}
		}
		panic(fmt.Sprintf("comm: workload deadlocked; groups %v incomplete (%d still queued for slots)",
			stuck, queued))
	}
}
