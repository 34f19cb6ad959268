package nicbarrier

import (
	"fmt"

	"nicbarrier/internal/barrier"
	"nicbarrier/internal/comm"
	"nicbarrier/internal/core"
	"nicbarrier/internal/elan"
	"nicbarrier/internal/harness"
	"nicbarrier/internal/myrinet"
	"nicbarrier/internal/obs"
	"nicbarrier/internal/sim"
)

// Cluster is a persistent simulated cluster that many process groups
// share — the multi-tenant face of the library. Where the one-shot
// Measure* functions build a cluster, run one group, and throw both
// away, a Cluster lives across operations: create groups over arbitrary
// node subsets with NewGroup, run their collectives (concurrently, via
// MeasureWorkload/RunWorkload, or back to back via the Group methods),
// and let them contend for the NIC group-queue slots, firmware
// processors and links the way the paper's per-group protocol intends.
//
//	c, _ := nicbarrier.NewCluster(nicbarrier.Config{
//		Interconnect: nicbarrier.MyrinetLANaiXP,
//		Nodes:        16,
//		Scheme:       nicbarrier.NICCollective,
//	})
//	g1, _ := c.NewGroup([]int{0, 1, 2, 3})
//	g2, _ := c.NewGroup([]int{4, 5, 6, 7})
//	res, _ := g1.Barrier(10, 1000) // g2 may run its own ops on the same wire
type Cluster struct {
	cfg Config
	c   *comm.Cluster
}

// AdmissionPolicy decides what a group install does when a member NIC's
// group slots are exhausted.
type AdmissionPolicy int

// Admission policies.
const (
	// AdmitError fails the install cleanly (the default and the
	// historical behavior).
	AdmitError AdmissionPolicy = iota
	// AdmitQueue defers the install until a Group.Close frees the slots
	// it needs; deferred installs are served strictly FIFO.
	AdmitQueue
	// AdmitSpread re-places the group on the member NICs with the most
	// free slots.
	AdmitSpread
	// AdmitPack re-places the group on the fullest NICs that still have
	// a free slot.
	AdmitPack
)

// String implements fmt.Stringer.
func (p AdmissionPolicy) String() string { return comm.AdmitPolicy(p).String() }

// AdmissionConfig configures a Cluster's admission controller.
type AdmissionConfig struct {
	Policy AdmissionPolicy
	// ChargeInstallCosts charges the hardware profile's GroupInstallCost
	// on member NICs' simulated timelines at install. Teardown cost is
	// always charged by Close — teardown is inherently a live-cluster
	// operation; only the install side has a free setup phase.
	ChargeInstallCosts bool
}

func (a AdmissionConfig) internal() comm.AdmissionConfig {
	return comm.AdmissionConfig{
		Policy:           comm.AdmitPolicy(a.Policy),
		ChargeSetupCosts: a.ChargeInstallCosts,
	}
}

// NewCluster builds a simulated cluster from cfg (Nodes, Interconnect,
// LossRate, Faults, Admission, Seed, Trace): engine, NIC backend,
// communicator layer and admission controller. The Scheme and Algorithm
// fields set the default for groups created on it.
func NewCluster(cfg Config) (*Cluster, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	var sc *obs.Scope
	if cfg.Trace != nil {
		sc = cfg.Trace.newScope(fmt.Sprintf("%v %dn %v", cfg.Interconnect, cfg.Nodes, cfg.Scheme))
	}
	tb := cfg.Interconnect.testbed()
	cc := comm.NewCluster(tb, cfg.Nodes, compileFaults(cfg.faults(), cfg.Seed, tb.LineRateMBps()), sc)
	cc.SetAdmission(cfg.Admission.internal())
	return &Cluster{cfg: cfg, c: cc}, nil
}

// Group is one communicator on a shared Cluster: a node subset with its
// own NIC group-queue slot, bit-vector records and sequence space per
// collective shape it runs. The first Barrier/Broadcast/Allreduce call
// claims the slot; repeated calls reuse it (the operation sequence
// continues, as the protocol's long-lived group queues do).
type Group struct {
	c       *Cluster
	members []int
	closed  bool
	// shapes holds one communicator per collective shape run so far, in
	// creation order, so Close tears them down deterministically.
	shapes []shapedGroup
}

// shapedGroup is one of a Group's communicators and the shape it runs.
type shapedGroup struct {
	shape
	cg *comm.Group
}

// shape identifies one collective configuration of a Group: the
// operation kind plus the broadcast tree or allreduce operator. The
// cluster fixes everything else (scheme, algorithm, tree degree).
type shape struct {
	kind         comm.OpKind
	root, degree int
	op           core.ReduceOp
}

// NewGroup declares a communicator over the given node IDs (rank
// order). NIC resources are claimed lazily by the first collective run
// on it, so declaring a group is free; running one fails cleanly when a
// member NIC's group-queue slots are exhausted.
func (c *Cluster) NewGroup(members []int) (*Group, error) {
	if len(members) < 1 {
		return nil, fmt.Errorf("nicbarrier: empty group")
	}
	seen := make(map[int]bool, len(members))
	for _, id := range members {
		if id < 0 || id >= c.cfg.Nodes {
			return nil, fmt.Errorf("nicbarrier: member node %d outside cluster of %d", id, c.cfg.Nodes)
		}
		if seen[id] {
			return nil, fmt.Errorf("nicbarrier: member node %d repeated", id)
		}
		seen[id] = true
	}
	return &Group{c: c, members: append([]int(nil), members...)}, nil
}

// Size reports the number of ranks in the group.
func (g *Group) Size() int { return len(g.members) }

// Close tears the group down, releasing every NIC group-queue slot its
// collective shapes claimed (one per distinct barrier, broadcast tree
// and allreduce operator it ran) back to the cluster — the teardown
// cost charged on the member NICs. Runs in flight drain first; under
// the queueing admission policy the freed slots immediately serve
// deferred installs. Closing an unused or already-closed group is a
// no-op. The group cannot run collectives afterwards.
func (g *Group) Close() error {
	for len(g.shapes) > 0 {
		if err := g.shapes[0].cg.Close(); err != nil {
			return err
		}
		g.shapes = g.shapes[1:]
	}
	g.closed = true
	return nil
}

// commSchemes maps the public scheme to the backend selectors.
func (c *Cluster) commSchemes() (myrinet.Scheme, elan.Scheme, error) {
	quadrics := c.cfg.Interconnect == QuadricsElan3
	switch c.cfg.Scheme {
	case HostBased:
		return myrinet.SchemeHost, elan.SchemeGsync, nil
	case NICDirect:
		return myrinet.SchemeDirect, 0, nil
	case NICCollective:
		return myrinet.SchemeCollective, elan.SchemeChained, nil
	case HardwareBroadcast:
		if quadrics {
			return 0, elan.SchemeHW, nil
		}
	}
	return 0, 0, fmt.Errorf("nicbarrier: scheme %v unsupported on %v", c.cfg.Scheme, c.cfg.Interconnect)
}

// Barrier runs warmup+iters consecutive barriers on this group, using
// the cluster Config's Scheme and Algorithm, and returns latency
// statistics over the measured iterations. HostBased on Quadrics is
// elan_gsync, a gather-broadcast tree whatever the Algorithm. Other
// groups on the cluster are untouched and may run their own operations
// concurrently via MeasureWorkload-style driving.
func (g *Group) Barrier(warmup, iters int) (Result, error) {
	ms, es, err := g.c.commSchemes()
	if err != nil {
		return Result{}, err
	}
	return g.run(comm.GroupConfig{
		Kind:          comm.OpBarrier,
		Algorithm:     g.c.cfg.Algorithm.internal(),
		Options:       barrier.Options{TreeDegree: g.c.cfg.TreeDegree},
		MyrinetScheme: ms,
		ElanScheme:    es,
	}, warmup, iters)
}

// Broadcast runs warmup+iters NIC-based broadcasts from root down a
// degree-ary tree (0: the default of 4; Myrinet clusters only).
func (g *Group) Broadcast(root, degree, warmup, iters int) (Result, error) {
	return g.run(comm.GroupConfig{Kind: comm.OpBroadcast, Root: root, Degree: degree}, warmup, iters)
}

// allreduceContrib is the deterministic contribution the library's
// allreduce measurements feed in (and self-check against).
func allreduceContrib(rank, iter int) int64 { return int64(rank*131 + iter*17 - 64) }

// Allreduce runs warmup+iters NIC-based single-word allreduces with the
// given operator (Myrinet clusters only), self-checking every
// iteration's result on every rank against the reference reduction.
func (g *Group) Allreduce(op ReduceOperator, warmup, iters int) (Result, error) {
	return g.run(comm.GroupConfig{
		Kind:      comm.OpAllreduce,
		Algorithm: g.c.cfg.Algorithm.internal(),
		Options:   barrier.Options{TreeDegree: g.c.cfg.TreeDegree},
		Reduce:    op.internal(),
		Contrib:   allreduceContrib,
	}, warmup, iters)
}

// run measures warmup+iters operations of gc's shape on this group,
// creating its communicator (and claiming its NIC slots) on first use,
// and checks any allreduce results.
func (g *Group) run(gc comm.GroupConfig, warmup, iters int) (Result, error) {
	if g.closed {
		return Result{}, fmt.Errorf("nicbarrier: group is closed")
	}
	if err := checkLoop(warmup, iters); err != nil {
		return Result{}, err
	}
	key := shape{kind: gc.Kind, root: gc.Root, degree: barrier.TreeDegree(gc.Degree), op: gc.Reduce}
	var cg *comm.Group
	for _, sg := range g.shapes {
		if sg.shape == key {
			cg = sg.cg
		}
	}
	if cg == nil {
		gc.Members = g.members
		var err error
		if cg, err = g.c.c.NewGroup(gc); err != nil {
			return Result{}, err
		}
		g.shapes = append(g.shapes, shapedGroup{key, cg})
	}
	// An exclusive measurement loop never closes other groups, so an
	// install still queued behind full NICs would wait forever.
	if !cg.Installed() {
		return Result{}, fmt.Errorf("nicbarrier: group install is queued awaiting free NIC slots; close another group first")
	}
	res := g.c.measure(cg, warmup, iters)
	if err := cg.CheckResults(); err != nil {
		return Result{}, err
	}
	return res, nil
}

func checkLoop(warmup, iters int) error {
	if warmup < 0 || iters < 1 {
		return fmt.Errorf("nicbarrier: warmup %d / iters %d", warmup, iters)
	}
	return nil
}

// measure drives one comm group exclusively for warmup+iters operations
// and assembles a Result from counter deltas, so repeated measurements
// on a shared cluster stay independent. On a fresh cluster the deltas
// equal the absolutes, which keeps the one-shot Measure* wrappers
// bit-identical to their historical behavior.
//
// A group whose install is still queued (AdmitQueue on a full NIC)
// cannot be driven exclusively — nothing in an exclusive run will free
// the slots it waits for — so Group.run errors out before reaching here.
func (c *Cluster) measure(cg *comm.Group, warmup, iters int) Result {
	c0 := c.c.Counters()
	t0 := c.c.Eng.Now()
	cg.Reset()
	doneAt := cg.Run(warmup + iters)
	c.c.Eng.Run() // drain trailing ACKs and events for accurate counters
	if t0 != 0 {
		shifted := make([]sim.Time, len(doneAt))
		for i, at := range doneAt {
			shifted[i] = sim.Time(0).Add(at.Sub(t0))
		}
		doneAt = shifted
	}
	st := harness.LatencyStats(doneAt, warmup)
	c1 := c.c.Counters()
	dropped := c1.Dropped - c0.Dropped
	midRoute := c1.HopDropped - c0.HopDropped
	return Result{
		MeanMicros: st.MeanUS, MinMicros: st.MinUS, MaxMicros: st.MaxUS,
		StdMicros: st.StdUS, Iterations: st.Iterations,
		PacketsPerBarrier: float64(c1.Sent-c0.Sent) / float64(warmup+iters),
		Retransmissions:   c1.Retransmits - c0.Retransmits,
		DroppedPackets:    dropped,
		Drops: DropBreakdown{
			Injected: dropped - midRoute,
			MidRoute: midRoute,
			Rejected: c1.Rejected - c0.Rejected,
			Stale:    c1.Stale - c0.Stale,
		},
	}
}
