package comm

import (
	"fmt"

	"nicbarrier/internal/barrier"
	"nicbarrier/internal/core"
	"nicbarrier/internal/elan"
	"nicbarrier/internal/obs"
)

// elanBackend adapts a Quadrics cluster: groups run barrier schemes only
// (the paper's chained-RDMA list is a barrier structure), and only the
// chained scheme holds a per-group descriptor slot on the cards.
type elanBackend struct{ cl *elan.Cluster }

func (b elanBackend) nodes() int { return len(b.cl.Nodes) }

func (b elanBackend) slotsFree(node int) int { return b.cl.Nodes[node].NIC.ChainSlotsFree() }

// slotted: gsync and hardware barriers keep no per-group NIC state.
func (b elanBackend) slotted(gc GroupConfig) bool { return gc.ElanScheme == elan.SchemeChained }

// collectiveProtocol: the Elan model runs barrier schemes only.
func (b elanBackend) collectiveProtocol() bool { return false }

func (b elanBackend) checkRecovery(gc GroupConfig) error {
	if gc.ElanScheme != elan.SchemeChained {
		return fmt.Errorf("comm: recovery requires the chained-RDMA scheme on Quadrics (%v is host-driven)", gc.ElanScheme)
	}
	return nil
}

// bind installs the validated plan; elan_gsync is a gather-broadcast
// tree whatever the group's algorithm, so a gsync group that asked for
// another one gets that tree built from its options.
func (b elanBackend) bind(gc GroupConfig, gid core.GroupID, plan *barrier.Plan, _ core.Mode) (*core.Session, error) {
	if gc.ElanScheme == elan.SchemeGsync && gc.Algorithm != barrier.GatherBroadcast {
		plan = barrier.NewPlan(barrier.GatherBroadcast, len(gc.Members), gc.Options)
	}
	s, err := elan.NewGroupSession(b.cl, gid, gc.Members, gc.ElanScheme, plan)
	if err != nil {
		return nil, err
	}
	return s.Session, nil
}

func (b elanBackend) setTracer(sc *obs.Scope) { b.cl.SetTracer(sc) }

// setFailureHooks: the Elan model raises no NACK stalls (its RDMAs carry
// no retransmission protocol to stall).
func (b elanBackend) setFailureHooks(onHB, _ func(core.GroupID, int)) {
	for _, n := range b.cl.Nodes {
		n.NIC.OnHeartbeat = onHB
	}
}

func (b elanBackend) sendHeartbeat(gid core.GroupID, fromNode, fromRank, dstNode int) {
	b.cl.Nodes[fromNode].NIC.SendHeartbeat(gid, fromRank, dstNode)
}

func (b elanBackend) counters() Counters {
	return Counters{Counters: b.cl.Net.Counters(), Stale: b.cl.Stats().StaleRDMAs}
}
