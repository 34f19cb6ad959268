package comm

import (
	"errors"
	"fmt"
	"sort"

	"nicbarrier/internal/barrier"
	"nicbarrier/internal/core"
	"nicbarrier/internal/myrinet"
)

// AdmitPolicy decides what NewGroup does when a member NIC's group
// slots are exhausted.
type AdmitPolicy int

// Admission policies.
const (
	// AdmitError fails the install cleanly, leaving the cluster
	// untouched — the historical behavior and the default.
	AdmitError AdmitPolicy = iota
	// AdmitQueue accepts the group but defers its install until a Close
	// frees the slots it needs. Queued installs are served strictly
	// FIFO (a large group at the head is never starved by smaller ones
	// behind it); a Launch issued while queued replays at install time.
	AdmitQueue
	// AdmitSpread re-places the group on the member NICs with the MOST
	// free slots (load balancing: tenants spread across the cluster).
	AdmitSpread
	// AdmitPack re-places the group on the member NICs with the FEWEST
	// remaining free slots that still have one (bin packing: keeps whole
	// NICs free for future large tenants).
	AdmitPack
)

// String implements fmt.Stringer.
func (p AdmitPolicy) String() string {
	switch p {
	case AdmitError:
		return "error"
	case AdmitQueue:
		return "queue"
	case AdmitSpread:
		return "spread"
	case AdmitPack:
		return "pack"
	default:
		return fmt.Sprintf("AdmitPolicy(%d)", int(p))
	}
}

// AdmissionConfig configures the cluster's admission controller.
type AdmissionConfig struct {
	Policy AdmitPolicy
	// ChargeSetupCosts charges each profile's GroupInstallCost on the
	// member NICs' simulated timeline at install (and re-install via
	// Reconfigure or the queue). Uninstall cost is always charged —
	// teardown is inherently a live-cluster operation. The default false
	// keeps setup-phase installs free, which is what the one-shot
	// measurement paths (and the committed baselines) assume.
	ChargeSetupCosts bool
}

// AdmissionStats reports what the controller did so far.
type AdmissionStats struct {
	// Installs and Uninstalls count completed slot claims and releases
	// (a Reconfigure contributes one of each).
	Installs, Uninstalls int
	// Queued counts installs that could not proceed immediately;
	// QueueLen and MaxQueueLen describe the deferred-install queue.
	Queued, QueueLen, MaxQueueLen int
	// Placed counts groups the spread/pack policies moved onto
	// different members than requested.
	Placed int
	// SlotHighWater is the most communicator-held slots any single NIC
	// carried at one moment.
	SlotHighWater int
	// WaitsUS holds each served queued install's wait (simulated
	// microseconds), in service order.
	WaitsUS []float64
}

// sched is the admission controller: it owns the reference-counted slot
// accounting per member NIC, the deferred-install queue, and the
// placement policies. One per Cluster, single-threaded like everything
// above the engine.
type sched struct {
	c       *Cluster
	cfg     AdmissionConfig
	slotCap int   // per-NIC slot capacity from the hardware profile
	used    []int // communicator-held slots per node (refcounts)
	queue   []*Group
	// seen stamps each member node with the validate call that met it
	// (pass), so the duplicate check allocates and clears nothing.
	seen []uint64
	pass uint64

	stats AdmissionStats
}

func newSched(c *Cluster, slotCap int) *sched {
	return &sched{c: c, cfg: AdmissionConfig{}, slotCap: slotCap, used: make([]int, c.Nodes()), seen: make([]uint64, c.Nodes())}
}

// SetAdmission configures the admission controller. Changing the policy
// while installs are queued panics — the queue's semantics belong to the
// policy that created it.
func (c *Cluster) SetAdmission(cfg AdmissionConfig) {
	if len(c.sched.queue) > 0 {
		panic("comm: SetAdmission with queued installs pending")
	}
	c.sched.cfg = cfg
}

// Admission returns the current admission configuration.
func (c *Cluster) Admission() AdmissionConfig { return c.sched.cfg }

// AdmissionStats snapshots the controller's counters. The WaitsUS slice
// is shared; callers must not mutate it.
func (c *Cluster) AdmissionStats() AdmissionStats {
	st := c.sched.stats
	st.QueueLen = len(c.sched.queue)
	return st
}

// SlotsFree reports how many group slots remain on one node's NIC — the
// ground truth the backends maintain, which the controller's refcounts
// mirror for the groups it admitted.
func (c *Cluster) SlotsFree(node int) int { return c.be.slotsFree(node) }

// admit is NewGroup's policy dispatch: validate gc, try the requested
// install, and on slot exhaustion either fail, queue, or re-place per
// the policy.
func (s *sched) admit(g *Group, gc GroupConfig) error {
	plan, err := s.validate(&gc)
	if err != nil {
		return err
	}
	err = s.install(g, gc, plan)
	if err == nil || !errors.Is(err, core.ErrSlotsExhausted) {
		return err
	}
	switch s.cfg.Policy {
	case AdmitQueue:
		gc.Members = append([]int(nil), gc.Members...)
		g.gc, g.queuedPlan = gc, plan
		g.Members = gc.Members
		g.queuedAt = s.c.Eng.Now()
		s.queue = append(s.queue, g)
		s.stats.Queued++
		if len(s.queue) > s.stats.MaxQueueLen {
			s.stats.MaxQueueLen = len(s.queue)
		}
		return nil
	case AdmitSpread, AdmitPack:
		members, perr := s.place(len(gc.Members), s.cfg.Policy == AdmitSpread)
		if perr != nil {
			return fmt.Errorf("%w; placement found no alternative: %v", err, perr)
		}
		gc.Members = members
		if ierr := s.install(g, gc, plan); ierr != nil {
			return ierr
		}
		s.stats.Placed++
		return nil
	default: // AdmitError
		return err
	}
}

// install binds a backend session running plan, validated from gc,
// under a fresh group ID, labels the ID with g's tenant on a traced
// cluster, updates the slot refcounts and charges the install cost when
// configured. On failure g is left as it was.
func (s *sched) install(g *Group, gc GroupConfig, plan *barrier.Plan) error {
	gc.Members = append([]int(nil), gc.Members...)
	prevID, prevMembers := g.ID, g.Members
	gid := s.c.nextGID
	g.ID = gid
	g.Members = gc.Members
	bound := gc
	if gc.Contrib != nil {
		bound.Contrib = g.contrib
	}
	sess, err := s.c.be.bind(bound, gid, plan, gc.Kind.collective().mode)
	if err != nil {
		g.ID, g.Members = prevID, prevMembers
		return err
	}
	g.sess = sess
	s.c.nextGID++
	if s.c.tr != nil {
		s.c.tr.BindGroupTenant(int(gid), g.tenant)
	}
	g.gc = gc
	g.installedAt = s.c.Eng.Now()
	s.stats.Installs++
	if s.c.be.slotted(gc) {
		for _, id := range gc.Members {
			s.used[id]++
			if s.used[id] > s.stats.SlotHighWater {
				s.stats.SlotHighWater = s.used[id]
			}
		}
	}
	if s.cfg.ChargeSetupCosts {
		g.sess.ChargeInstall()
	}
	g.attach()
	return nil
}

// release returns an uninstalled group's slots to the refcounts and
// drains the queue — a departure is exactly when deferred installs can
// proceed.
func (s *sched) release(gc GroupConfig, members []int) {
	if s.c.be.slotted(gc) {
		for _, id := range members {
			if s.used[id] == 0 {
				panic(fmt.Sprintf("comm: slot refcount underflow on node %d", id))
			}
			s.used[id]--
		}
	}
	s.stats.Uninstalls++
	s.drain()
}

// withdraw removes a still-queued group from the admission queue (its
// Close before any slots materialized). Withdrawing the head unblocks
// whatever FIFO'd behind it, so the queue drains.
func (s *sched) withdraw(g *Group) {
	for i, q := range s.queue {
		if q == g {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			s.drain()
			return
		}
	}
	panic("comm: withdrawing a group that is not queued")
}

// drain serves the deferred-install queue strictly FIFO: install the
// head while its slots are available, stop at the first head that still
// cannot fit. Served groups replay any Launch that arrived while they
// waited. A head whose members lack a free slot is refused before
// install, so the refusal builds no error: the empty-queue and
// still-blocked paths run on every group departure.
func (s *sched) drain() {
	for len(s.queue) > 0 {
		head := s.queue[0]
		if s.c.be.slotted(head.gc) {
			for _, id := range head.gc.Members {
				if s.c.SlotsFree(id) == 0 {
					return // strict FIFO: nothing behind the head may jump it
				}
			}
		}
		if err := s.install(head, head.gc, head.queuedPlan); err != nil {
			// validate checked everything but slot capacity, checked above.
			panic(fmt.Sprintf("comm: queued install failed: %v", err))
		}
		s.queue = s.queue[1:]
		head.queuedPlan = nil
		s.stats.WaitsUS = append(s.stats.WaitsUS, head.installedAt.Sub(head.queuedAt).Micros())
		if head.pendingIters > 0 {
			iters := head.pendingIters
			head.pendingIters = 0
			head.launchSess(iters)
		}
	}
}

// place picks size members for a re-placed group: spread prefers the
// nodes with the most free slots (even load), pack the fewest non-zero
// (dense packing); ties break on node ID, and the chosen members are
// returned in ascending node order so placement is deterministic.
func (s *sched) place(size int, spread bool) ([]int, error) {
	type cand struct{ node, free int }
	var cands []cand
	for node := 0; node < s.c.Nodes(); node++ {
		if free := s.c.SlotsFree(node); free > 0 {
			cands = append(cands, cand{node, free})
		}
	}
	if len(cands) < size {
		return nil, fmt.Errorf("%d nodes with free slots, need %d", len(cands), size)
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].free != cands[j].free {
			if spread {
				return cands[i].free > cands[j].free
			}
			return cands[i].free < cands[j].free
		}
		return cands[i].node < cands[j].node
	})
	members := make([]int, size)
	for i := range members {
		members[i] = cands[i].node
	}
	sort.Ints(members)
	return members, nil
}

// validate checks everything about gc but slot capacity against the
// collective table and builds its plan (its only allocation), setting
// the NIC collective scheme for kinds that take none and dropping the
// contribution of kinds that do not fold. Every admission and
// reconfiguration runs it first, so all policies reject alike and a
// queued install cannot fail later for a reason knowable now.
func (s *sched) validate(gc *GroupConfig) (*barrier.Plan, error) {
	if len(gc.Members) < 1 {
		return nil, fmt.Errorf("comm: empty group")
	}
	op := gc.Kind.collective()
	if op == nil {
		return nil, fmt.Errorf("comm: unknown op kind %d", int(gc.Kind))
	}
	s.pass++
	for _, id := range gc.Members {
		if id < 0 || id >= len(s.seen) {
			return nil, fmt.Errorf("comm: member node %d outside cluster of %d", id, len(s.seen))
		}
		if s.seen[id] == s.pass {
			return nil, fmt.Errorf("comm: member node %d repeated", id)
		}
		s.seen[id] = s.pass
	}
	if !op.schemed {
		if !s.c.be.collectiveProtocol() {
			return nil, fmt.Errorf("comm: %v needs the NIC collective protocol (Quadrics groups run barriers)", gc.Kind)
		}
		gc.MyrinetScheme = myrinet.SchemeCollective
	}
	plan, err := op.plan(*gc)
	switch {
	case err != nil:
	case !op.fold:
		gc.Contrib = nil
	case gc.Contrib == nil:
		err = fmt.Errorf("comm: %v group without Contrib", gc.Kind)
	default:
		err = core.CheckReduce(gc.Reduce, plan.Rank(0))
	}
	if err != nil {
		return nil, err
	}
	return plan, nil
}
