package myrinet

import (
	"fmt"

	"nicbarrier/internal/hwprofile"
	"nicbarrier/internal/netsim"
	"nicbarrier/internal/obs"
	"nicbarrier/internal/sim"
	"nicbarrier/internal/topo"
)

// Cluster is a set of Myrinet nodes on one network.
type Cluster struct {
	Eng   *sim.Engine
	Prof  hwprofile.MyrinetProfile
	Net   *netsim.Network
	Nodes []*Node

	// nicShared is what every NIC points to: the network, the one
	// free list of handler records and wire payloads that every node's
	// NIC and host schedule from, the tracer and the failure hooks.
	nicShared
}

// NewCluster builds an n-node Myrinet cluster on Topology(n). imp is
// installed exactly as SetFaults
// would install it; nil means a fault-free network. Pass an untyped nil,
// not a nil *fault.Plan: a typed nil is a non-nil interface that the
// network would call.
func NewCluster(eng *sim.Engine, prof hwprofile.MyrinetProfile, n int, imp netsim.Impairment) *Cluster {
	if n < 1 {
		panic(fmt.Sprintf("myrinet: cluster size %d", n))
	}
	eng.Reserve(2 * n)
	cl := &Cluster{Eng: eng, Prof: prof, Net: netsim.New(eng, Topology(n), prof.Net)}
	cl.net = cl.Net
	cl.Nodes = newNodes(cl, n)
	cl.SetFaults(imp)
	return cl
}

// Topology is the network of an n-node Myrinet cluster: a single
// 16-port crossbar when it fits (the paper's testbeds), which is a
// one-level fat tree of arity n, otherwise a Clos network of 16-port
// switches (8 up / 8 down). A one-node cluster gets a two-port switch,
// the smallest tree there is.
func Topology(n int) topo.Topology {
	if n <= 16 {
		return topo.MinFatTree(max(n, 2), n)
	}
	return topo.MinFatTree(8, n)
}

// SetTracer attaches an observability scope to the cluster: the network
// records packet lifecycle events on it and every NIC records firmware
// events (doorbells, NACKs, resends, installs) plus per-group NIC-time
// attribution. nil detaches. Tracing never alters the simulated
// timeline; with no tracer the cost is one nil check per site.
func (cl *Cluster) SetTracer(sc *obs.Scope) {
	cl.Net.SetTracer(sc)
	cl.tr = sc
}

// SetFaults installs a fault-injection impairment (e.g. a fault.Plan) on
// the cluster's network. Myrinet leaves reliability to the NIC control
// program, so every impairment semantics — including drops and rejects —
// applies; the MCP's ACK/timeout and receiver-driven NACK retransmission
// paths are what recover from them.
func (cl *Cluster) SetFaults(imp netsim.Impairment) {
	cl.Net.SetImpairment(imp)
}

// Stats is a cluster's NIC statistics: the GM point-to-point counters
// and the NIC-level ones.
type Stats struct {
	GMStats
	NICStats
}

// Stats sums the NIC statistics over all nodes.
func (cl *Cluster) Stats() Stats {
	var total Stats
	for _, node := range cl.Nodes {
		g := node.NIC.gmStats()
		total.TokensEnqueued += g.TokensEnqueued
		total.DataSent += g.DataSent
		total.AcksSent += g.AcksSent
		total.AcksRecv += g.AcksRecv
		total.Retransmits += g.Retransmits
		total.SeqDrops += g.SeqDrops
		total.TokenDrops += g.TokenDrops
		total.DupAcks += g.DupAcks
		s := node.NIC.Stats
		total.EventsPosted += s.EventsPosted
		total.CollSent += s.CollSent
		total.CollRecvd += s.CollRecvd
		total.CollResent += s.CollResent
		total.NacksSent += s.NacksSent
		total.NacksRecvd += s.NacksRecvd
		total.StaleColl += s.StaleColl
		total.BarriersRun += s.BarriersRun
		total.HeartbeatsSent += s.HeartbeatsSent
		total.HeartbeatsRecvd += s.HeartbeatsRecvd
		total.AbortedOps += s.AbortedOps
	}
	return total
}
