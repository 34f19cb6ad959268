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
// No code here branches on which model a Cluster runs (only NewCluster
// picks it), nor, outside the collective table (collectives), on which
// op kind a group runs: a new collective is one table entry plus its
// barrier.Plan.
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
// Every Group keeps one completion ledger (see ledger), written by its
// completion hook for exclusive and driven runs alike; the same hook
// emits each op's span on a traced cluster. Cluster.Counters and
// Group.CheckResults are the wire accounting and the allreduce
// reference check every caller shares.
package comm

import (
	"fmt"
	"slices"

	"nicbarrier/internal/barrier"
	"nicbarrier/internal/core"
	"nicbarrier/internal/elan"
	"nicbarrier/internal/hwprofile"
	"nicbarrier/internal/myrinet"
	"nicbarrier/internal/netsim"
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

	// tr, when non-nil, is the observability scope every group emits
	// its per-operation spans and per-tenant metrics into.
	tr *obs.Scope

	// hbRoute routes heartbeat deliveries and NACK-stall signals to the
	// recovery that owns each group ID; nil until the first setRecovery
	// (see recovery.go).
	hbRoute map[core.GroupID]*recovery
}

// SetTracer attaches an observability scope to the communicator layer
// and its backend cluster (network packet lifecycle, NIC firmware
// events, every group's per-op spans). nil detaches.
func (c *Cluster) SetTracer(sc *obs.Scope) {
	c.tr = sc
	c.be.setTracer(sc)
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

// NewCluster builds a communicator layer over a fresh n-node cluster
// of testbed tb on its own engine, for the facade, the harness and the
// chaos soak alike (internal/shard and the benchmark build their model
// clusters themselves). imp (an untyped nil: fault-free; never a
// nil *fault.Plan) is installed the way each model takes impairments:
// Myrinet at construction, Elan through its SetFaults, which strips
// link loss. A non-nil sc becomes the engine's observer and the
// cluster's tracer.
func NewCluster(tb hwprofile.Testbed, n int, imp netsim.Impairment, sc *obs.Scope) *Cluster {
	eng := sim.NewEngine()
	var c *Cluster
	switch tb {
	case hwprofile.LANai91:
		c = OverMyrinet(myrinet.NewCluster(eng, hwprofile.LANai91Cluster(), n, imp))
	case hwprofile.LANaiXP:
		c = OverMyrinet(myrinet.NewCluster(eng, hwprofile.LANaiXPCluster(), n, imp))
	case hwprofile.Elan3:
		cl := elan.NewCluster(eng, hwprofile.Elan3Cluster(), n)
		cl.SetFaults(imp)
		c = OverElan(cl)
	default:
		panic(fmt.Sprintf("comm: unknown testbed %v", tb))
	}
	if sc != nil {
		eng.SetObserver(sc)
		c.SetTracer(sc)
	}
	return c
}

// nodes reports the underlying cluster size.
func (c *Cluster) nodes() int { return c.be.nodes() }

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
	// the driven tenant while a RunTenants call is in progress.
	tenant int
	run    *TenantRun

	// led is the group's completion ledger (see ledger).
	led ledger

	// pendingIters holds a launch that arrived while the install was
	// still queued; it replays when the scheduler installs the group.
	pendingIters int
	// queuedAt/installedAt record admission timing for the queueing
	// policy's wait statistics.
	queuedAt    sim.Time
	installedAt sim.Time

	// pace shapes the group's operation stream during workloads.
	pace pacer

	// rec is the group's fail-stop survival machinery; nil unless the
	// driver armed it (setRecovery, recovery.go).
	rec *recovery
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

// ledger is a group's one record of the operations it completed, in
// group-level op order across every run, Reset, swap, eviction and
// rebuild: completion instants, fold results and membership epochs.
// The session's current run keeps its own completions until the run is
// reset or aborted or the session replaced; fold then moves them here,
// so an exclusive run stores each op once. The current run's iteration
// i is therefore always group op len(done)+i.
type ledger struct {
	ops      int        // completed operations, folded or still in the run
	done     []sim.Time // completion instant of every folded op
	launches []launch   // one entry per launch
	// fold holds a fold kind's results and epochs; nil for other kinds
	// and until the first install.
	fold *foldLedger
}

// foldLedger is the part of a folding group's ledger that checks its
// results: every folded op's result per rank and one membership epoch
// per install.
type foldLedger struct {
	rows   [][]int64
	epochs []epoch
}

// epoch is one install's membership, which ran the ops from group op
// index from up to the next epoch's.
type epoch struct {
	from    int
	members []int
}

// launch is one launch's instant: a closed-loop launch's first op,
// group op index from, is eligible at it.
type launch struct {
	from int
	at   sim.Time
}

// attach wires the group's completion multiplexer and pacing hooks into
// a freshly bound session and opens a folding group's membership epoch;
// called after every install (initial, queued, or reconfiguration).
func (g *Group) attach() {
	g.sess.OnIterDone = g.onIterDone
	if g.Kind.collective().fold {
		if g.led.fold == nil {
			g.led.fold = new(foldLedger)
		}
		g.led.fold.epochs = append(g.led.fold.epochs, epoch{from: g.led.ops, members: g.Members})
	}
	g.applyPace()
}

// onIterDone observes every globally completed operation: it ledgers
// it, emits its span on a traced cluster, forwards to recovery and the
// tenant driver, and finalizes a deferred Close once the run has
// drained.
func (g *Group) onIterDone(iter int, at sim.Time) {
	k := g.led.ops
	g.led.ops++
	if g.rec != nil {
		g.rec.onProgress()
	}
	if tr := g.c.tr; tr != nil {
		tr.OpSpan(int(g.ID), g.Kind.String(), g.eligible(k), g.sess.StartAt()[iter], at)
	}
	if g.run != nil {
		g.run.opDone()
	}
	if g.closing && g.sess.Done() {
		g.finalizeClose()
	}
}

// fold moves the current run's completions into the ledger. It runs
// before the run's bookkeeping is cleared (Reset, Abort) or its session
// replaced (Reconfigure); folding again is a no-op.
func (g *Group) fold() {
	l := &g.led
	tail := l.ops - len(l.done)
	if tail == 0 {
		return
	}
	l.done = append(l.done, g.sess.DoneAt()[:tail]...)
	if f := l.fold; f != nil {
		f.rows = append(f.rows, g.sess.Results()[:tail]...)
	}
}

// doneAt is op k's completion instant.
func (g *Group) doneAt(k int) sim.Time {
	if k < len(g.led.done) {
		return g.led.done[k]
	}
	return g.sess.DoneAt()[k-len(g.led.done)]
}

// row is fold op k's result per rank.
func (g *Group) row(k int) []int64 {
	if rows := g.led.fold.rows; k < len(rows) {
		return rows[k]
	}
	return g.sess.Results()[k-len(g.led.done)]
}

// contrib is the contribution a folding group's session posts: the
// configured Contrib at the group-level op index, so the stream runs on
// across swaps and rebuilds.
func (g *Group) contrib(rank, iter int) int64 {
	return g.gc.Contrib(rank, len(g.led.done)+iter)
}

// eligible is the instant op k became eligible to post, where its span
// and its latency start: an open-loop op's arrival; for a closed loop,
// its launch instant if it is a launch's first op, else the previous
// completion (recovery relaunches included), plus the op's think time.
func (g *Group) eligible(k int) sim.Time {
	if a := g.pace.arrivals; a != nil {
		return a[k]
	}
	ls := g.led.launches
	i := len(ls) - 1
	for ls[i].from > k {
		i--
	}
	at := ls[i].at
	if ls[i].from < k {
		at = g.doneAt(k - 1)
	}
	if t := g.pace.think; t != nil {
		at = at.Add(t[k])
	}
	return at
}

// markLaunch records a launch at the current instant.
func (g *Group) markLaunch() {
	g.led.launches = append(g.led.launches, launch{from: g.led.ops, at: g.c.Eng.Now()})
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
func (g *Group) OpsCompleted() int { return g.led.ops }

// Completions returns every completed operation's completion instant in
// group-level op order, across runs, swaps and recovery rebuilds. The
// slice may alias the ledger: callers must not modify it.
func (g *Group) Completions() []sim.Time {
	l := &g.led
	if l.ops == len(l.done) {
		return l.done
	}
	tail := g.sess.DoneAt()[:l.ops-len(l.done)]
	if len(l.done) == 0 {
		return tail
	}
	return append(slices.Clip(l.done), tail...)
}

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
	g.markLaunch()
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
		g.markLaunch()
		g.pendingIters = iters
		return
	}
	g.launched = true
	g.markLaunch()
	g.launchSess(iters)
}

// launchSess posts iters operations on the bound session and arms the
// recovery machinery when configured; the single funnel for every
// launch path (direct, queued replay, recovery relaunch). The new
// session numbers its operations from 0, so the pacer's schedule is
// shifted to continue at the group-level operation index.
func (g *Group) launchSess(iters int) {
	g.pace.off = g.led.ops
	g.sess.Launch(iters)
	if g.rec != nil {
		g.rec.onLaunch(iters)
	}
}

// DoneAt returns the current run's per-iteration completion times
// (valid once Done); Completions holds every run's.
func (g *Group) DoneAt() []sim.Time { return g.sess.DoneAt() }

// Reset readies a finished group for another run: the NIC group-queue
// entry stays installed and its sequence space continues, only the run
// bookkeeping clears (the group's ledger keeps the run's completions).
func (g *Group) Reset() {
	if g.sess == nil {
		panic("comm: Reset on a queued group (its install has not been served)")
	}
	g.fold()
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
	g.fold()
	if err := g.c.sched.install(g, gc, plan); err != nil {
		return err // install leaves g on its old session
	}
	g.launched = false
	oldSess.Close()
	g.c.sched.release(oldGC, oldMembers)
	return nil
}

// Results returns the current run's allreduce outcomes per iteration
// and rank; nil for other group kinds.
func (g *Group) Results() [][]int64 {
	if g.sess == nil {
		return nil
	}
	return g.sess.Results()
}

// CheckResults verifies every ledgered operation's result on every
// rank of a folding group (allreduce) against the reference reduction:
// the group's own operator folded over the contributions of the
// membership epoch that ran that operation. It is the cheap invariant
// that proves concurrent groups did not contaminate each other's NIC
// state, across swaps and evictions alike. Other kinds have nothing to
// check.
func (g *Group) CheckResults() error {
	if g.led.fold == nil {
		return nil
	}
	epochs, e := g.led.fold.epochs, 0
	for op := range g.led.ops {
		for e+1 < len(epochs) && epochs[e+1].from <= op {
			e++
		}
		row, size := g.row(op), len(epochs[e].members)
		if len(row) != size {
			return fmt.Errorf("comm: group %d %v op %d: %d results for a membership of %d",
				g.ID, g.Kind, op, len(row), size)
		}
		want := g.gc.Contrib(0, op)
		for r := 1; r < size; r++ {
			want = g.gc.Reduce.Combine(want, g.gc.Contrib(r, op))
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
