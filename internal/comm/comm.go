// Package comm is the communicator subsystem layered over the simulated
// interconnects. The harness's paper-figure points (all but the skew
// figure), the facade, the benchmark and the multi-tenant workloads run
// their groups through it. A backend session of internal/myrinet or
// internal/elan is one process group bound to its cluster; a
// comm.Cluster multiplexes many Groups over one cluster: each group
// claims its own NIC group-queue slot (a hard SRAM resource), owns its
// own bit-vector records and sequence space, and completes independently,
// exactly the concurrency the paper's per-group queues were designed for.
// Contention between tenants arises naturally from the substrates: the
// single NIC firmware processor serializes handlers of co-resident
// groups, and netsim's link occupancy charges worms that share trunks.
//
// Each Group drives its members through the backend session's shared
// run driver (core.Session), held directly; everything else the layer
// needs of an interconnect — node count, free slots, whether it has the
// NIC collective protocol, which schemes claim slots or can recover,
// install, tracer and heartbeat hooks, network counters — goes through
// the unexported backend interface (backend.go), one adapter per model.
// No code here branches on which model a Cluster runs, nor, outside the
// collective table (collectives), on which op kind a group runs: a new
// collective is one table entry plus its barrier.Plan.
//
// Groups are a full lifecycle, not a one-way allocation: Close drains
// and uninstalls a group, returning its slots (teardown cost charged on
// the member NICs), Reconfigure swaps a group's membership via
// install-new/handoff-sequence/uninstall-old, and the admission
// controller in sched.go decides what happens when slots run out —
// error, queue until a departure frees them, or re-place the group on
// members with capacity (see AdmissionConfig).
//
// A group runs in one of two ways. Group.Run drives one group
// exclusively: the paper's measurement loop of consecutive barriers.
// Everything else (several
// groups at once, recovery, pacing, swaps, departures) goes through the
// tenant driver RunTenants (driver.go), from Tenant records planned up
// front: planTenants for RunWorkload's open- and closed-loop streams and
// planChurn for RunChurn's arrive/run/reconfigure/depart lifecycles
// (workload.go), the chaos soak's own planner, and hand-written records.
// A stalled run returns an error, never a panic.
//
// workload_shard.go holds the one workload run path: RunWorkloadSharded
// plans the full tenant population once, deals tenants round-robin
// across replica clusters, drives and collects every shard on its own
// engine goroutine, and merges the shards into one report in
// deterministic global-tenant order. RunWorkload is its one-shard call,
// run on the caller's goroutine; see ARCHITECTURE.md for the
// partitioning model and its fidelity trade. Churn runs one driver on
// one cluster.
//
// Cluster.Counters and Group.CheckResults are the wire accounting and
// the allreduce reference check every caller shares.
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

// collective is one op kind's entry in the collective table. Every
// collective is a barrier.Plan run by the same NIC group queues, bit
// vectors and NACK recovery; kinds differ only in these fields.
type collective struct {
	name string
	// plan builds gc's plan, rejecting a bad root, degree or algorithm.
	plan func(gc GroupConfig) (*barrier.Plan, error)
	mode core.Mode
	// fold kinds need Reduce and Contrib, exact over the plan, and have
	// their results checked.
	fold    bool
	schemed bool            // takes a barrier scheme, else runs the NIC collective protocol
	weight  func(OpMix) int // the kind's share of a workload mix
}

// collectives is the collective table, indexed by OpKind.
var collectives = [...]collective{
	OpBarrier: {name: "barrier", plan: schedulePlan, mode: core.Chained, schemed: true,
		weight: func(m OpMix) int { return m.Barrier }},
	OpBroadcast: {name: "broadcast", plan: treePlan, mode: core.Gated,
		weight: func(m OpMix) int { return m.Broadcast }},
	OpAllreduce: {name: "allreduce", plan: schedulePlan, mode: core.Results, fold: true,
		weight: func(m OpMix) int { return m.Allreduce }},
}

// collective returns k's table entry, nil for an unknown kind.
func (k OpKind) collective() *collective {
	if k < 0 || int(k) >= len(collectives) {
		return nil
	}
	return &collectives[k]
}

// String implements fmt.Stringer.
func (k OpKind) String() string {
	if op := k.collective(); op != nil {
		return op.name
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// schedulePlan is the plan of a barrier algorithm over the group.
func schedulePlan(gc GroupConfig) (*barrier.Plan, error) {
	if gc.Algorithm < barrier.Dissemination || gc.Algorithm > barrier.GatherBroadcast {
		return nil, fmt.Errorf("comm: unknown algorithm %d", int(gc.Algorithm))
	}
	if d := gc.Options.TreeDegree; d != 0 && d < 2 {
		return nil, fmt.Errorf("comm: tree degree %d", d)
	}
	return barrier.NewPlan(gc.Algorithm, len(gc.Members), gc.Options), nil
}

// treePlan is the plan of a broadcast from Root down a Degree-ary tree.
func treePlan(gc GroupConfig) (*barrier.Plan, error) {
	n, degree := len(gc.Members), barrier.TreeDegree(gc.Degree)
	if gc.Root < 0 || gc.Root >= n {
		return nil, fmt.Errorf("comm: broadcast root %d outside group of %d", gc.Root, n)
	}
	if degree < 2 {
		return nil, fmt.Errorf("comm: broadcast degree %d", gc.Degree)
	}
	return barrier.NewBroadcastPlan(n, gc.Root, degree), nil
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

	// tr, when non-nil, is the observability scope the tenant driver
	// emits per-operation spans and per-tenant metrics into.
	tr *obs.Scope

	// hbRoute routes heartbeat deliveries and NACK-stall signals to the
	// recovery that owns each group ID; nil until the first setRecovery
	// (see recovery.go).
	hbRoute map[core.GroupID]*recovery
}

// SetTracer attaches an observability scope to the communicator layer
// and its backend cluster (network packet lifecycle, NIC firmware
// events, per-op spans from the tenant driver). nil detaches.
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
	// Root and Degree shape broadcast trees (Degree 0: barrier.DefaultTreeDegree).
	Root, Degree int
	// Reduce and Contrib configure allreduce groups: the combining
	// operator and each rank's per-iteration contribution.
	Reduce  core.ReduceOp
	Contrib func(rank, iter int) int64
}

// Group is one communicator: a subset of nodes with its own NIC
// group-queue slot, bit-vector records and sequence space. Groups on one
// Cluster run concurrently; each is driven either exclusively (Run) or
// with others by the tenant driver RunTenants, which installs it.
//
// A group's lifecycle is install -> run(s) -> Close (or Reconfigure
// between runs). Under the queueing admission policy a group may exist
// before it is installed: ID stays 0 and its launch is deferred until a
// departure frees the slots it needs.
type Group struct {
	c       *Cluster
	ID      core.GroupID
	Members []int
	Kind    OpKind

	// gc is the configuration the group was admitted with, with Members
	// tracking placement and reconfiguration; Reconfigure reuses it.
	gc GroupConfig
	// queuedPlan is a queued install's validated plan, until it binds.
	queuedPlan *barrier.Plan

	sess     *core.Session
	launched bool
	closed   bool
	closing  bool // Close requested while a run was in flight

	// tenant is the workload-wide tenant index every ID the group is
	// installed under is bound to on a traced cluster (-1: none); run is
	// the tenant driver's ledger while a driven run is in progress.
	tenant int
	run    *TenantRun

	// pendingIters holds a launch that arrived while the install was
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

	// rec is the group's fail-stop survival machinery; nil unless the
	// driver armed it (setRecovery, recovery.go).
	rec *recovery
	// evictedNodes lists node IDs removed by Evict, in order.
	evictedNodes []int
}

// NewGroup creates a communicator over the given members, installing its
// group-queue entry on every member NIC. When a member NIC's slots are
// exhausted the admission policy decides the outcome: fail cleanly with
// the cluster untouched (AdmitError, the default), queue the install
// until a Close frees slots (AdmitQueue), or place the group on
// alternate members with free slots (AdmitSpread/AdmitPack). An invalid
// configuration fails under every policy, with the same error.
func (c *Cluster) NewGroup(gc GroupConfig) (*Group, error) { return c.newGroup(gc, -1) }

// newGroup is NewGroup for a group labelled with its workload-wide
// tenant index.
func (c *Cluster) newGroup(gc GroupConfig, tenant int) (*Group, error) {
	g := &Group{c: c, Kind: gc.Kind, tenant: tenant}
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
// the group-level sequence, forwards to the tenant driver, and finalizes
// a deferred Close once the run has drained.
func (g *Group) onIterDone(iter int, at sim.Time) {
	g.opsDone++
	if g.c.tr != nil {
		g.c.tr.OpDone(int(g.ID))
	}
	if g.rec != nil {
		g.rec.onProgress(iter, at)
	}
	if g.run != nil {
		g.run.opDone(iter, at)
	}
	if g.closing && g.sess.Done() {
		g.finalizeClose()
	}
}

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
		panic("comm: Run on a recovery-enabled group (run it as a Tenant with Recovery through RunTenants)")
	}
	g.launched = true
	return g.sess.Run(iters)
}

// launch posts the group's first operation without driving the engine;
// the tenant driver multiplexes launched groups on one engine. On a
// group whose install is still queued, the launch is recorded and
// replayed the moment the scheduler installs it.
func (g *Group) launch(iters int) {
	if g.closed {
		panic("comm: launch on a closed group")
	}
	if iters < 1 {
		panic(fmt.Sprintf("comm: launch iterations %d", iters))
	}
	if g.sess == nil {
		// Same loud double-launch contract as the installed path: a
		// second launch would silently overwrite the recorded replay.
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
// launch path (direct, queued replay, recovery relaunch). The new
// session numbers its operations from 0, so the pacer's schedule is
// shifted to continue at the group-level operation index.
func (g *Group) launchSess(iters int) {
	g.pace.off = g.opsDone
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

// Reset readies a finished group for another run: the NIC group-queue
// entry stays installed and its sequence space continues, only the run
// bookkeeping clears.
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
	gc := g.gc
	gc.Members = newMembers
	plan, err := g.c.sched.validate(&gc)
	if err != nil {
		return err
	}
	oldSess, oldGC, oldMembers := g.sess, g.gc, g.Members
	if err := g.c.sched.install(g, gc, plan); err != nil {
		return err // install leaves g on its old session
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

// CheckResults verifies every completed operation's result on every
// rank of a folding group (allreduce) against the reference reduction:
// the group's own operator folded over its members' contributions for
// that operation. It is the cheap invariant that proves concurrent
// groups did not contaminate each other's NIC state. A group with
// recovery armed checks its recovery ledger instead, epoch by epoch,
// since each eviction shrinks the membership and so changes the
// expected reduction. Other kinds have nothing to check.
func (g *Group) CheckResults() error {
	if !g.Kind.collective().fold {
		return nil
	}
	rows, epochs, contrib := g.Results(), []MembershipEpoch{{Members: g.Members}}, g.gc.Contrib
	if g.rec != nil {
		rows, epochs, contrib = g.rec.rows, g.rec.epochs, g.rec.contrib
	}
	e := 0
	for op, row := range rows {
		for e+1 < len(epochs) && epochs[e+1].FromOp <= op {
			e++
		}
		size := len(epochs[e].Members)
		if len(row) != size {
			return fmt.Errorf("comm: group %d %v op %d: %d results for a membership of %d",
				g.ID, g.Kind, op, len(row), size)
		}
		want := contrib(0, op)
		for r := 1; r < size; r++ {
			want = g.gc.Reduce.Combine(want, contrib(r, op))
		}
		for rank, got := range row {
			if got != want {
				return fmt.Errorf("comm: group %d %v op %d rank %d: got %d, want %d",
					g.ID, g.Kind, op, rank, got, want)
			}
		}
	}
	return nil
}
