package comm

import (
	"fmt"

	"nicbarrier/internal/core"
	"nicbarrier/internal/elan"
	"nicbarrier/internal/netsim"
	"nicbarrier/internal/obs"
)

// elanBackend adapts a Quadrics cluster: groups run barriers only (the
// paper's chained-RDMA list is a barrier structure), and only the
// chained scheme holds a per-group descriptor slot on the cards.
type elanBackend struct{ cl *elan.Cluster }

func (b elanBackend) nodes() int { return len(b.cl.Nodes) }

func (b elanBackend) slotsFree(node int) int { return b.cl.Nodes[node].NIC.ChainSlotsFree() }

// slotted: gsync and hardware barriers keep no per-group NIC state.
func (b elanBackend) slotted(gc GroupConfig) bool { return gc.ElanScheme == elan.SchemeChained }

func (b elanBackend) checkKind(k OpKind) error {
	if k != OpBarrier {
		return fmt.Errorf("comm: %v is modeled on Myrinet only (Quadrics groups run barriers)", k)
	}
	return nil
}

func (b elanBackend) checkRecovery(gc GroupConfig) error {
	if gc.ElanScheme != elan.SchemeChained {
		return fmt.Errorf("comm: recovery requires the chained-RDMA scheme on Quadrics (%v is host-driven)", gc.ElanScheme)
	}
	return nil
}

func (b elanBackend) bind(gc GroupConfig, gid core.GroupID) (*core.Session, error) {
	if err := b.checkKind(gc.Kind); err != nil {
		return nil, err
	}
	s, err := elan.NewSessionWithID(b.cl, gid, gc.Members, gc.ElanScheme, gc.Algorithm, gc.Options)
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

func (b elanBackend) netCounters() netsim.Counters { return b.cl.Net.Counters() }
