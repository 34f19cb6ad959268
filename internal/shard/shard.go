// Package shard is the partitioned parallel simulation runtime: it
// carves a simulated cluster into shards that each run their own
// discrete-event loop (an independent sim.Engine with its own timer
// heap and packet pools) on their own goroutine, and synchronizes them
// with conservative lookahead in the style of classic conservative
// parallel discrete-event simulation (Chandy–Misra–Bryant with a
// global window): within a window no shard can affect another, so the
// shards run truly in parallel; at window boundaries cross-shard
// messages are collected from per-sender outboxes and merged in a
// deterministic order (source shard ID, then virtual time, then
// per-source sequence number), which keeps multi-partition runs
// bit-reproducible for a given seed regardless of how the OS schedules
// the shard goroutines.
//
// The window length is the lookahead: the minimum virtual latency any
// cross-shard interaction can have, derived from the minimum
// inter-partition link latency of the underlying topology and hardware
// profile (see minCrossLatency). A message sent at time t arrives no
// earlier than t+lookahead, so while every shard executes the window
// [W, W+L) no message generated inside the window can land inside it —
// the conservative invariant runner.Send enforces with a panic.
//
// Three layers build on this runtime:
//
//   - the partitioner (plan) assigns nodes to shards in contiguous
//     blocks (the communicator layer deals whole tenants to partitions
//     round-robin instead, see comm.RunWorkloadSharded);
//   - the runner coordinates per-shard engines through windows;
//   - MeasureHierBarrier simulates shard-spanning collectives (a
//     hierarchical barrier toward 64k endpoints): full-fidelity
//     NIC-collective barriers inside each shard, and between shard
//     representatives the same dissemination barrier.Plan and
//     core.OpState state machine, its tokens as cross-shard messages.
package shard

import (
	"fmt"

	"nicbarrier/internal/netsim"
	"nicbarrier/internal/sim"
	"nicbarrier/internal/topo"
)

// plan is a deterministic assignment of cluster nodes to shards:
// contiguous blocks of near-equal size, in node order. Contiguity keeps
// partition boundaries aligned with the block placement the topologies
// and workload generators already use, and makes Range O(1)
// arithmetic rather than a lookup.
type plan struct {
	nodes, parts int
}

// newPlan partitions nodes into parts contiguous shards. parts is
// clamped to nodes (a shard needs at least one node); parts < 1 or
// nodes < 1 panics.
func newPlan(nodes, parts int) plan {
	if nodes < 1 || parts < 1 {
		panic(fmt.Sprintf("shard: plan with %d nodes in %d parts", nodes, parts))
	}
	if parts > nodes {
		parts = nodes
	}
	return plan{nodes: nodes, parts: parts}
}

// Nodes reports the total node count the plan partitions.
func (p plan) Nodes() int { return p.nodes }

// Parts reports the number of shards.
func (p plan) Parts() int { return p.parts }

// Range reports shard s's contiguous node range [lo, hi). Shards 0
// through nodes%parts-1 hold one extra node, so sizes differ by at
// most one.
func (p plan) Range(s int) (lo, hi int) {
	if s < 0 || s >= p.parts {
		panic(fmt.Sprintf("shard: shard %d outside [0,%d)", s, p.parts))
	}
	base, extra := p.nodes/p.parts, p.nodes%p.parts
	lo = s*base + min(s, extra)
	hi = lo + base
	if s < extra {
		hi++
	}
	return lo, hi
}

// Size reports the number of nodes in shard s.
func (p plan) Size(s int) int {
	lo, hi := p.Range(s)
	return hi - lo
}

// minCrossLatency derives the conservative lookahead window from the
// topology and wire parameters: the minimum head latency of any packet
// whose route crosses a partition boundary. Every route between
// distinct hosts traverses at least one switch, so the scan only needs
// the cheapest cross-partition (src, dst) pair; it probes the boundary
// node of each shard against the first node of every other shard,
// which covers the minimum because per-link costs are uniform within a
// topology. The serialization term is omitted (payload-dependent), so
// the result is a true lower bound for any packet size.
func minCrossLatency(t topo.Topology, p plan, params netsim.Params) sim.Duration {
	if p.Parts() < 2 {
		return 0
	}
	least := sim.Duration(1<<62 - 1)
	for a := 0; a < p.Parts(); a++ {
		_, hiA := p.Range(a)
		src := hiA - 1 // boundary node of shard a
		for b := 0; b < p.Parts(); b++ {
			if a == b {
				continue
			}
			loB, _ := p.Range(b)
			lat := headLatency(t, src, loB, params)
			if lat < least {
				least = lat
			}
		}
	}
	return least
}

// headLatency is the uncontended head arrival latency of a zero-byte
// packet from src to dst: per-link wire latency plus cut-through
// latency at every intermediate switch (the same charging rule
// netsim's linkStep applies).
func headLatency(t topo.Topology, src, dst int, params netsim.Params) sim.Duration {
	route := t.Route(src, dst)
	var lat sim.Duration
	for i := range route {
		lat += params.WirePerHop
		if i+1 < len(route) {
			lat += params.SwitchLatency
		}
	}
	return lat
}
