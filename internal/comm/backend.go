package comm

import (
	"nicbarrier/internal/core"
	"nicbarrier/internal/netsim"
	"nicbarrier/internal/obs"
)

// backend is what the communicator layer needs of one interconnect
// model beyond the shared run driver (core.Session): resources,
// installs, which configurations the model implements, and the hooks
// the tracer and fail-stop recovery attach to. Each model has one
// adapter (backend_myrinet.go, backend_elan.go); a new interconnect is
// one more.
type backend interface {
	// nodes reports the cluster size.
	nodes() int
	// slotsFree reports how many group slots remain on node's NIC — the
	// ground truth the admission controller's refcounts mirror.
	slotsFree(node int) int
	// slotted reports whether gc claims NIC group slots at all.
	slotted(gc GroupConfig) bool
	// checkKind rejects a collective the model does not implement.
	checkKind(k OpKind) error
	// checkRecovery rejects a configuration fail-stop recovery cannot
	// drive: recovery needs the operation to live on the NICs.
	checkRecovery(gc GroupConfig) error
	// bind installs gc's session under group ID gid, leaving the cluster
	// untouched on failure.
	bind(gc GroupConfig, gid core.GroupID) (*core.Session, error)
	// setTracer attaches sc (nil detaches) to the network and NICs.
	setTracer(sc *obs.Scope)
	// setFailureHooks routes every NIC's heartbeat deliveries and, where
	// the model raises them, NACK-stall signals.
	setFailureHooks(onHB, onStall func(gid core.GroupID, arg int))
	// sendHeartbeat emits one probe from fromNode to dstNode.
	sendHeartbeat(gid core.GroupID, fromNode, fromRank, dstNode int)
	// netCounters reports the network's packet counters.
	netCounters() netsim.Counters
}
