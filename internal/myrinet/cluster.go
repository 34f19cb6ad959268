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

	// pool is the one free list of handler records and wire payloads
	// that every node's NIC and host schedule from.
	pool pool
}

// NewCluster builds an n-node Myrinet cluster: a single 16-port crossbar
// when it fits (the paper's testbeds), otherwise a Clos network of
// 16-port switches (8 up / 8 down). loss may be nil.
func NewCluster(eng *sim.Engine, prof hwprofile.MyrinetProfile, n int, loss netsim.LossModel) *Cluster {
	if n < 1 {
		panic(fmt.Sprintf("myrinet: cluster size %d", n))
	}
	var t topo.Topology
	if n <= 16 {
		t = topo.NewCrossbar(n)
	} else {
		t = topo.MinFatTree(8, n)
	}
	net := netsim.New(eng, t, prof.Net, loss)
	cl := &Cluster{Eng: eng, Prof: prof, Net: net}
	for i := 0; i < n; i++ {
		cl.Nodes = append(cl.Nodes, newNode(eng, i, &cl.Prof, net, &cl.pool))
	}
	return cl
}

// SetTracer attaches an observability scope to the cluster: the network
// records packet lifecycle events on it and every NIC records firmware
// events (doorbells, NACKs, resends, installs) plus per-group NIC-time
// attribution. nil detaches. Tracing never alters the simulated
// timeline; with no tracer the cost is one nil check per site.
func (cl *Cluster) SetTracer(sc *obs.Scope) {
	cl.Net.SetTracer(sc)
	for _, node := range cl.Nodes {
		node.NIC.tr = sc
	}
}

// SetFaults installs a fault-injection impairment (e.g. a fault.Plan) on
// the cluster's network. Myrinet leaves reliability to the NIC control
// program, so every impairment semantics — including drops and rejects —
// applies; the MCP's ACK/timeout and receiver-driven NACK retransmission
// paths are what recover from them.
func (cl *Cluster) SetFaults(imp netsim.Impairment) {
	cl.Net.SetImpairment(imp)
}

// Stats sums the NIC statistics over all nodes.
func (cl *Cluster) Stats() NICStats {
	var total NICStats
	for _, node := range cl.Nodes {
		s := node.NIC.Stats
		total.TokensEnqueued += s.TokensEnqueued
		total.DataSent += s.DataSent
		total.AcksSent += s.AcksSent
		total.AcksRecv += s.AcksRecv
		total.Retransmits += s.Retransmits
		total.SeqDrops += s.SeqDrops
		total.TokenDrops += s.TokenDrops
		total.DupAcks += s.DupAcks
		total.EventsPosted += s.EventsPosted
		total.CollSent += s.CollSent
		total.CollRecvd += s.CollRecvd
		total.CollResent += s.CollResent
		total.NacksSent += s.NacksSent
		total.NacksRecvd += s.NacksRecvd
		total.StaleColl += s.StaleColl
		total.BarriersRun += s.BarriersRun
	}
	return total
}
