package comm

import (
	"nicbarrier/internal/barrier"
	"nicbarrier/internal/core"
	"nicbarrier/internal/netsim"
	"nicbarrier/internal/obs"
)

// backend is what the communicator layer needs of one interconnect
// model beyond the shared run driver (core.Session): resources,
// installs of a plan in a mode (never of a kind), what the model can
// recover, and the hooks the tracer and fail-stop recovery attach to.
// Each model has one adapter (backend_myrinet.go, backend_elan.go); a
// new interconnect is one more.
type backend interface {
	// nodes reports the cluster size.
	nodes() int
	// slotsFree reports how many group slots remain on node's NIC — the
	// ground truth the admission controller's refcounts mirror.
	slotsFree(node int) int
	// slotted reports whether gc claims NIC group slots at all.
	slotted(gc GroupConfig) bool
	// collectiveProtocol reports whether the model has the NIC
	// collective protocol that kinds taking no barrier scheme ride.
	collectiveProtocol() bool
	// checkRecovery rejects a configuration fail-stop recovery cannot
	// drive: recovery needs the operation to live on the NICs.
	checkRecovery(gc GroupConfig) error
	// bind installs a session running plan, validated from gc, in mode
	// under group ID gid, leaving the cluster untouched on failure.
	bind(gc GroupConfig, gid core.GroupID, plan *barrier.Plan, mode core.Mode) (*core.Session, error)
	// setTracer attaches sc (nil detaches) to the network and NICs.
	setTracer(sc *obs.Scope)
	// setFailureHooks routes every NIC's heartbeat deliveries and, where
	// the model raises them, NACK-stall signals.
	setFailureHooks(onHB, onStall func(gid core.GroupID, arg int))
	// sendHeartbeat emits one probe from fromNode to dstNode.
	sendHeartbeat(gid core.GroupID, fromNode, fromRank, dstNode int)
	// counters reports the network's packet counters and the NICs'
	// recovery accounting.
	counters() Counters
}

// Counters is a cluster-wide snapshot of wire and recovery accounting:
// the network's packet counters plus what the NICs did about losses.
type Counters struct {
	netsim.Counters
	// Retransmits counts recovery resends: point-to-point
	// retransmissions and collective NACK resends. Always zero on
	// Quadrics, whose hardware reliability never resends.
	Retransmits uint64
	// Stale counts NIC discards of late duplicates: packets the wire
	// delivered for an operation already complete or a group already
	// torn down.
	Stale uint64
}

// Counters snapshots the cluster-wide wire and recovery accounting.
func (c *Cluster) Counters() Counters { return c.be.counters() }
