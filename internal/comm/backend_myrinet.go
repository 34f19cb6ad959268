package comm

import (
	"fmt"

	"nicbarrier/internal/core"
	"nicbarrier/internal/myrinet"
	"nicbarrier/internal/obs"
)

// myrinetBackend adapts a Myrinet cluster: every collective kind rides
// the NIC group queues, barriers may pick the host or direct scheme.
type myrinetBackend struct{ cl *myrinet.Cluster }

func (b myrinetBackend) nodes() int { return len(b.cl.Nodes) }

func (b myrinetBackend) slotsFree(node int) int { return b.cl.Nodes[node].NIC.GroupSlotsFree() }

// slotted: host-scheme barriers keep no per-group NIC state.
func (b myrinetBackend) slotted(gc GroupConfig) bool {
	return gc.Kind != OpBarrier || gc.MyrinetScheme != myrinet.SchemeHost
}

func (b myrinetBackend) checkKind(OpKind) error { return nil }

func (b myrinetBackend) checkRecovery(gc GroupConfig) error {
	if gc.Kind == OpBarrier && gc.MyrinetScheme != myrinet.SchemeCollective {
		return fmt.Errorf("comm: recovery requires the NIC collective scheme on Myrinet (%v rides p2p retransmission)", gc.MyrinetScheme)
	}
	return nil
}

func (b myrinetBackend) bind(gc GroupConfig, gid core.GroupID) (*core.Session, error) {
	var s *myrinet.Session
	var err error
	switch gc.Kind {
	case OpBarrier:
		s, err = myrinet.NewSessionWithID(b.cl, gid, gc.Members, gc.MyrinetScheme, gc.Algorithm, gc.Options)
	case OpBroadcast:
		degree := gc.Degree
		if degree == 0 {
			degree = 4
		}
		if gc.Root < 0 || gc.Root >= len(gc.Members) {
			return nil, fmt.Errorf("comm: broadcast root %d outside group of %d", gc.Root, len(gc.Members))
		}
		s, err = myrinet.NewBroadcastSessionWithID(b.cl, gid, gc.Members, gc.Root, degree)
	case OpAllreduce:
		if gc.Contrib == nil {
			return nil, fmt.Errorf("comm: allreduce group without Contrib")
		}
		s, err = myrinet.NewAllreduceSessionWithID(b.cl, gid, gc.Members, gc.Algorithm, gc.Options, gc.Reduce, gc.Contrib)
	default:
		return nil, fmt.Errorf("comm: unknown op kind %d", int(gc.Kind))
	}
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
