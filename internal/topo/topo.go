// Package topo models the switch topologies of the two interconnects in
// the paper: Myrinet 2000 (wormhole-routed crossbar switches, arranged as a
// single crossbar or a Clos/fat-tree of 16-port crossbars) and Quadrics
// QsNet (Elite switches arranged in a quaternary fat tree). All of them
// are k-ary n-trees (FatTree); a single crossbar with k ports is the
// k-ary 1-tree.
//
// A topology enumerates directed links with dense integer IDs and answers
// routing queries with the exact sequence of links a packet traverses.
// The network simulator (internal/netsim) keeps per-link occupancy state
// keyed by these IDs, which is how output-port contention is modeled.
//
// Routing is deterministic and computed in closed form: link IDs are
// arithmetic functions of their endpoints, so Route composes each
// answer into a small per-topology scratch buffer instead of memoizing
// O(hosts²) route rows. That keeps warm Route allocation-free (the wire
// simulator's per-packet hot path) at O(hosts) memory, which is what
// makes 64k-endpoint clusters feasible. The returned slice is shared
// scratch: callers must treat it as read-only and consume it before the
// next Route call on the same topology — the next call overwrites it.
// As before, a topology is single-goroutine state, like the network
// that owns it: do not share one topology between concurrently running
// simulations.
package topo

import "fmt"

// Topology describes a switched interconnect between Hosts() endpoints.
type Topology interface {
	// Name identifies the topology for reports.
	Name() string
	// Hosts reports the number of host (NIC) endpoints.
	Hosts() int
	// LinkCount reports the number of directed links; link IDs are
	// dense in [0, LinkCount).
	LinkCount() int
	// Route returns the directed link IDs traversed from src to dst,
	// in order. Routing is deterministic. src == dst returns nil.
	// The returned slice is the topology's shared route scratch:
	// callers must not modify it and must not hold it across a
	// subsequent Route call on the same topology, which overwrites it.
	// The slice's backing array is stable, so repeated calls for the
	// same pair return identical contents at the same base address.
	Route(src, dst int) []int
	// SwitchHops reports how many switches a packet from src to dst
	// traverses (0 when src == dst).
	SwitchHops(src, dst int) int
	// Levels reports the number of switch levels (tree height); 1 for a
	// single crossbar.
	Levels() int
	// LinkEnds reports the endpoints of a link as opaque node labels,
	// for diagnostics and tests.
	LinkEnds(link int) (from, to string)
}

// checkHostRange panics when a host index is out of range. Routing with a
// bad index is always a harness bug and must not silently misroute.
func checkHostRange(t Topology, src, dst int) {
	if src < 0 || src >= t.Hosts() || dst < 0 || dst >= t.Hosts() {
		panic(fmt.Sprintf("topo: route %d->%d outside [0,%d)", src, dst, t.Hosts()))
	}
}
