package comm

import (
	"fmt"

	"nicbarrier/internal/barrier"
	"nicbarrier/internal/core"
	"nicbarrier/internal/myrinet"
	"nicbarrier/internal/obs"
)

// myrinetBackend adapts a Myrinet cluster: every plan rides the NIC
// group queues, and kinds that take a barrier scheme may pick the host
// or direct scheme instead.
type myrinetBackend struct{ cl *myrinet.Cluster }

func (b myrinetBackend) nodes() int { return len(b.cl.Nodes) }

func (b myrinetBackend) slotsFree(node int) int { return b.cl.Nodes[node].NIC.GroupSlotsFree() }

// slotted: host-scheme groups keep no per-group NIC state.
func (b myrinetBackend) slotted(gc GroupConfig) bool { return gc.MyrinetScheme != myrinet.SchemeHost }

func (b myrinetBackend) collectiveProtocol() bool { return true }

func (b myrinetBackend) checkRecovery(gc GroupConfig) error {
	if gc.MyrinetScheme != myrinet.SchemeCollective {
		return fmt.Errorf("comm: recovery requires the NIC collective scheme on Myrinet (%v rides p2p retransmission)", gc.MyrinetScheme)
	}
	return nil
}

func (b myrinetBackend) bind(gc GroupConfig, gid core.GroupID, plan *barrier.Plan, mode core.Mode) (*core.Session, error) {
	s, err := myrinet.NewGroupSession(b.cl, gid, gc.Members, gc.MyrinetScheme, plan, mode, gc.Reduce, gc.Contrib)
	if err != nil {
		return nil, err
	}
	return s.Session, nil
}

func (b myrinetBackend) setTracer(sc *obs.Scope) { b.cl.SetTracer(sc) }

func (b myrinetBackend) setFailureHooks(onHB, onStall func(core.GroupID, int)) {
	for _, n := range b.cl.Nodes {
		n.NIC.OnHeartbeat = onHB
		n.NIC.OnNackStall = onStall
	}
}

func (b myrinetBackend) sendHeartbeat(gid core.GroupID, fromNode, fromRank, dstNode int) {
	b.cl.Nodes[fromNode].NIC.SendHeartbeat(gid, fromRank, dstNode)
}

func (b myrinetBackend) counters() Counters {
	nic := b.cl.Stats()
	return Counters{Counters: b.cl.Net.Counters(),
		Retransmits: nic.Retransmits + nic.CollResent, Stale: nic.StaleColl}
}
