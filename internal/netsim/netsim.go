// Package netsim is the wire-level transport simulator shared by the
// Myrinet and Quadrics substrates. It models cut-through (wormhole)
// switching: a packet's head ripples through the route paying a per-link
// wire latency and a per-switch cut-through latency, the packet body
// occupies every traversed link for its serialization time (which is how
// output-port contention arises), and the destination sees the packet once
// the last byte arrives.
//
// The network itself never loses a packet. Every impairment — random,
// scripted or burst loss, latency/jitter, throttling, blocking,
// time-windowed faults — comes in through the one Impairment hook, which
// is consulted once at injection and once per traversed link (so a packet
// dropped mid-route still occupies the links it already crossed, and a
// time-windowed fault takes effect at the instant the head reaches the
// faulty hop). internal/fault builds composable fault plans on top of
// this hook. Quadrics wraps whatever it is given in DelayOnly
// (hardware-level reliability: link loss never reaches the NICs), while
// Myrinet leaves reliability to the NIC control program, which is exactly
// the part of the design space the paper's receiver-driven
// retransmission targets.
package netsim

import (
	"fmt"

	"nicbarrier/internal/obs"
	"nicbarrier/internal/sim"
	"nicbarrier/internal/topo"
)

// Packet is one network transfer unit.
type Packet struct {
	Src, Dst int
	Size     int    // bytes on the wire, including headers
	Kind     string // accounting label ("data", "ack", "barrier", "nack", ...)
	// Group is the process-group ID the packet belongs to, carried in the
	// static packet header by the collective protocol (0: ungrouped p2p
	// traffic). The network itself never dispatches on it; it exists so
	// impairments and accounting can tell concurrent tenants apart.
	Group   int
	Payload any
}

// Params fixes the physical constants of a network.
type Params struct {
	// WirePerHop is the propagation delay of one link segment.
	WirePerHop sim.Duration
	// SwitchLatency is the cut-through routing delay per switch.
	SwitchLatency sim.Duration
	// BandwidthMBps is the link bandwidth used for serialization.
	BandwidthMBps float64
}

// Outcome is an impairment decision for one packet at one consultation
// point. Zero value = unimpaired.
type Outcome struct {
	// Drop silently discards the packet (the blocked-port "drop"
	// semantics: the sender learns nothing).
	Drop bool
	// Reject discards the packet with the blocked-port "reject"
	// semantics (the network refuses the worm); it counts in Rejected
	// as well as Dropped.
	Reject bool
	// FailStop marks a discard caused by a whole-node (fail-stop)
	// failure rather than a link-level impairment. Hardware-reliable
	// adapters (DelayOnly) strip link-loss discards but must let
	// fail-stop discards through: a reliable network retransmits around
	// lost packets, it cannot resurrect a dead node.
	FailStop bool
	// Delay is extra head latency added at this point.
	Delay sim.Duration
}

// discards reports whether the outcome removes the packet.
func (o Outcome) discards() bool { return o.Drop || o.Reject }

// Impairment is the composable fault hook. Inject is consulted once per
// Send/Multicast at injection time; Hop is consulted once per traversed
// link with the virtual time at which the packet head starts crossing it.
// Implementations must be deterministic for a given seed.
type Impairment interface {
	Inject(pkt Packet, now sim.Time) Outcome
	Hop(pkt Packet, link, hop, hops int, headAt sim.Time) Outcome
}

// DelayOnly adapts an impairment for hardware-reliable networks: delays
// pass through, link-level drops and rejects are stripped, but
// fail-stop discards (Outcome.FailStop — whole-node crashes) survive
// with drop semantics. This is how the Quadrics substrate honors its
// hardware reliability under fault plans that mix loss with latency
// effects while still letting node-crash plans take hold: QsNet
// guarantees delivery over live links, not participation by dead hosts.
type DelayOnly struct {
	Inner Impairment
}

// Inject implements Impairment.
func (d DelayOnly) Inject(pkt Packet, now sim.Time) Outcome {
	return reliable(d.Inner.Inject(pkt, now))
}

// Hop implements Impairment.
func (d DelayOnly) Hop(pkt Packet, link, hop, hops int, headAt sim.Time) Outcome {
	return reliable(d.Inner.Hop(pkt, link, hop, hops, headAt))
}

func reliable(o Outcome) Outcome {
	if o.FailStop {
		// A dead node is dead on any network: keep the discard, but
		// normalize to silent drop semantics (nothing is left on the
		// node to observe a refusal).
		o.Drop, o.Reject = true, false
		return o
	}
	o.Drop, o.Reject = false, false
	return o
}

// Counters aggregates traffic accounting; the paper's packet-halving claim
// (receiver-driven retransmission eliminates ACKs) is verified against
// these numbers.
type Counters struct {
	Sent      uint64
	Delivered uint64
	// Dropped counts every discarded packet, whatever the mechanism
	// (impairment drop or reject, at injection or mid-route).
	Dropped uint64
	// Rejected counts the Dropped subset discarded with reject semantics.
	Rejected uint64
	// HopDropped counts the Dropped subset discarded mid-route by a
	// per-hop impairment (the packet occupied every link before the
	// faulty one).
	HopDropped uint64
	// FailStopped counts the Dropped subset discarded because an
	// endpoint suffered a whole-node (fail-stop) failure.
	FailStopped uint64
	Bytes       uint64
	ByKind      map[string]uint64
}

// Network binds a topology to physical parameters and attached receivers.
//
// The per-packet path is allocation-free in steady state: delivery is
// dispatched through pooled packet events (no closures), routes are
// composed in closed form into the topology's shared scratch buffer,
// packet kinds are interned to dense counter indices, and multicast
// bookkeeping lives in epoch-stamped scratch arrays. The string-keyed
// ByKind map exists only in the Counters() snapshot.
//
// Route-slice lifetime: a slice returned by topo.Route is only valid
// until the next Route call on the same topology, so every route here
// is consumed before the next one is composed.
type Network struct {
	eng       *sim.Engine
	topo      topo.Topology
	params    Params
	busyUntil []sim.Time
	recv      []Receiver
	imp       Impairment
	// counters holds the scalar totals; per-kind counts live in
	// kindCounts, indexed by the interned kind ID.
	counters   Counters
	kindIDs    map[string]int
	kindNames  []string
	kindCounts []uint64
	// freeEvents is the pool of packet events; events return here after
	// firing, so steady-state scheduling recycles instead of allocating.
	// When it is empty, events are carved from newEvents.
	freeEvents *pktEvent
	newEvents  sim.Chunk[pktEvent]
	mcast      mcastScratch
	// tr, when non-nil, receives packet-lifecycle records (inject,
	// per-hop arrival, drop with reason, delivery) and per-group wire
	// time attribution. Disabled cost: one nil check per site.
	tr *obs.Scope
}

// pktEvent is the pooled, closure-free form of a scheduled packet
// action. The engine dispatches it through the sim.Event interface; op
// selects what happens to the packet when the event fires.
type pktEvent struct {
	n    *Network
	pkt  Packet
	dsts []int // multicast destinations, opMulticastBody only
	op   uint8
	next *pktEvent // pool free-list link
}

const (
	opDeliver uint8 = iota
	opTransmit
	opMulticastBody
)

// Fire implements sim.Event. The event returns to the pool before its
// action runs: handlers routinely send more packets, and those sends
// may need events from the pool.
func (pe *pktEvent) Fire() {
	n, pkt, dsts, op := pe.n, pe.pkt, pe.dsts, pe.op
	n.putEvent(pe)
	switch op {
	case opDeliver:
		n.deliver(pkt)
	case opTransmit:
		n.transmit(pkt)
	case opMulticastBody:
		n.multicastBody(pkt, dsts)
	}
}

func (n *Network) getEvent(op uint8, pkt Packet, dsts []int) *pktEvent {
	pe := n.freeEvents
	if pe == nil {
		pe = n.newEvents.New()
		pe.n = n
	} else {
		n.freeEvents = pe.next
	}
	pe.pkt, pe.dsts, pe.op, pe.next = pkt, dsts, op, nil
	return pe
}

func (n *Network) putEvent(pe *pktEvent) {
	pe.pkt = Packet{} // release the payload reference
	pe.dsts = nil
	pe.next = n.freeEvents
	n.freeEvents = pe
}

// mcastScratch is the reusable multicast bookkeeping: per-link head
// times and dead-link outcomes, validity-stamped with the epoch of the
// multicast that wrote them so nothing needs clearing between calls.
type mcastScratch struct {
	epoch   uint64
	headSet []uint64 // headAt[link] is valid iff headSet[link] == epoch
	headAt  []sim.Time
	deadSet []uint64 // deadOut[link] is valid iff deadSet[link] == epoch
	deadOut []Outcome
}

func newMcastScratch(links int) mcastScratch {
	return mcastScratch{
		headSet: make([]uint64, links),
		headAt:  make([]sim.Time, links),
		deadSet: make([]uint64, links),
		deadOut: make([]Outcome, links),
	}
}

// New builds a lossless network over the given topology; SetImpairment
// adds faults.
func New(eng *sim.Engine, t topo.Topology, p Params) *Network {
	if p.BandwidthMBps <= 0 {
		panic("netsim: non-positive bandwidth")
	}
	links := t.LinkCount()
	return &Network{
		eng:       eng,
		topo:      t,
		params:    p,
		busyUntil: make([]sim.Time, links),
		recv:      make([]Receiver, t.Hosts()),
		kindIDs:   make(map[string]int),
	}
}

// countKind bumps the interned per-kind counter, interning the kind on
// first sight. Steady-state cost is one map read; no allocation.
func (n *Network) countKind(kind string) {
	id, ok := n.kindIDs[kind]
	if !ok {
		id = len(n.kindNames)
		n.kindIDs[kind] = id
		n.kindNames = append(n.kindNames, kind)
		n.kindCounts = append(n.kindCounts, 0)
	}
	n.kindCounts[id]++
}

// SetTracer installs (or clears, with nil) the packet-lifecycle
// tracer. Tracing only observes — virtual-time results are identical
// with or without it.
func (n *Network) SetTracer(sc *obs.Scope) { n.tr = sc }

// SetImpairment installs (or clears, with nil) the fault hook. Installing
// mid-simulation is allowed: fault plans schedule their own activation
// windows, so they are typically installed once up front.
func (n *Network) SetImpairment(imp Impairment) { n.imp = imp }

// Topology exposes the underlying topology.
func (n *Network) Topology() topo.Topology { return n.topo }

// Counters returns a snapshot of the traffic counters. The ByKind map
// is built on demand from the interned per-kind counters; kinds with a
// zero count (possible after ResetCounters) are omitted.
func (n *Network) Counters() Counters {
	snap := n.counters
	snap.ByKind = make(map[string]uint64, len(n.kindNames))
	for id, name := range n.kindNames {
		if c := n.kindCounts[id]; c > 0 {
			snap.ByKind[name] = c
		}
	}
	return snap
}

// ResetCounters zeroes the traffic accounting (e.g. after warmup). The
// kind interning table survives: IDs are stable for the network's
// lifetime, only the counts reset.
func (n *Network) ResetCounters() {
	n.counters = Counters{}
	for i := range n.kindCounts {
		n.kindCounts[i] = 0
	}
}

// Receiver takes the packets delivered to one host. A NIC model attaches
// a pointer to itself (or to a named view of itself), which, unlike a
// method value, costs no allocation per host.
type Receiver interface {
	Receive(Packet)
}

// ReceiverFunc adapts a plain function to Receiver.
type ReceiverFunc func(Packet)

// Receive calls f(pkt).
func (f ReceiverFunc) Receive(pkt Packet) { f(pkt) }

// Attach registers the receiver for a host. It panics when the host
// already has a receiver: silently replacing one would desynchronize a
// NIC model from its traffic.
func (n *Network) Attach(host int, r Receiver) {
	if host < 0 || host >= len(n.recv) {
		panic(fmt.Sprintf("netsim: attach host %d out of range", host))
	}
	if n.recv[host] != nil {
		panic(fmt.Sprintf("netsim: host %d already attached", host))
	}
	if r == nil {
		panic("netsim: nil receiver")
	}
	n.recv[host] = r
}

// serialization is the body transfer time of pkt on one link.
func (n *Network) serialization(pkt Packet) sim.Duration {
	return sim.BytesAt(int64(pkt.Size), n.params.BandwidthMBps)
}

// recordDrop is the single drop-accounting path: every discard —
// impairment drop or reject, injection-time or mid-route — funnels
// through here. at is the virtual time the discard decision is made (the
// current time for injection discards, the hop's head time for mid-route
// ones).
func (n *Network) recordDrop(pkt Packet, out Outcome, midRoute bool, at sim.Time) {
	n.counters.Dropped++
	if midRoute {
		n.counters.HopDropped++
	}
	if out.FailStop {
		n.counters.FailStopped++
	}
	if n.tr != nil {
		reason := obs.DropInjected
		switch {
		case out.FailStop:
			reason = obs.DropFailStop
		case out.Reject:
			reason = obs.DropRejected
		case midRoute:
			reason = obs.DropMidRoute
		}
		n.tr.PktDrop(at, pkt.Src, pkt.Dst, pkt.Group, pkt.Kind, reason)
	}
	if out.Reject {
		n.counters.Rejected++
	}
}

// Send injects a packet at the current virtual time. Delivery (or drop)
// is scheduled on the engine; Send itself costs no time, injection
// overheads belong to the NIC models.
func (n *Network) Send(pkt Packet) {
	n.counters.Sent++
	n.counters.Bytes += uint64(pkt.Size)
	n.countKind(pkt.Kind)
	if n.tr != nil {
		n.tr.PktInject(n.eng.Now(), pkt.Src, pkt.Dst, pkt.Group, pkt.Kind)
	}
	if pkt.Src == pkt.Dst {
		panic(fmt.Sprintf("netsim: loopback packet %d->%d; NIC models handle self-delivery", pkt.Src, pkt.Dst))
	}
	if n.imp != nil {
		out := n.imp.Inject(pkt, n.eng.Now())
		if out.discards() {
			n.recordDrop(pkt, out, false, n.eng.Now())
			return
		}
		if out.Delay > 0 {
			// Injection delay postpones the whole transmission (the worm
			// has not entered the network yet).
			n.eng.AfterEvent(out.Delay, n.getEvent(opTransmit, pkt, nil))
			return
		}
	}
	n.transmit(pkt)
}

// transmit walks the route and schedules delivery unless a per-hop
// impairment discards the packet mid-route. The route lives in the
// topology's scratch buffer, which headArrival consumes whole.
func (n *Network) transmit(pkt Packet) {
	arrival, ok := n.headArrival(pkt, n.topo.Route(pkt.Src, pkt.Dst))
	if !ok {
		return
	}
	done := arrival.Add(n.serialization(pkt))
	if n.tr != nil {
		n.tr.WireTime(pkt.Group, done.Sub(n.eng.Now()))
	}
	n.eng.ScheduleEvent(done, n.getEvent(opDeliver, pkt, nil))
}

// linkStep advances a packet head across one link: queue behind the
// link's current occupant, consult the per-hop impairment, occupy the
// link for the body's serialization time, then pay wire latency (plus
// cut-through latency when another switch follows). The discarding
// Outcome is returned with ok == false and the returned time is the
// discard decision's instant (the head's start on that link);
// accounting is the caller's job (unicast and multicast attribute
// drops differently).
func (n *Network) linkStep(pkt Packet, link, hop, hops int, t sim.Time, ser sim.Duration) (sim.Time, Outcome, bool) {
	start := t
	if n.busyUntil[link] > start {
		start = n.busyUntil[link] // blocked behind an earlier worm
	}
	if n.imp != nil {
		out := n.imp.Hop(pkt, link, hop, hops, start)
		if out.discards() {
			return start, out, false
		}
		start = start.Add(out.Delay)
	}
	n.busyUntil[link] = start.Add(ser)
	t = start.Add(n.params.WirePerHop)
	if hop+1 < hops {
		t = t.Add(n.params.SwitchLatency) // cut-through at next switch
	}
	return t, Outcome{}, true
}

// headArrival walks the route charging per-hop latency and link occupancy,
// returning when the packet head reaches the destination port. ok is false
// when a per-hop impairment discarded the packet; links before the faulty
// hop stay occupied for the body's serialization time, exactly as a
// truncated worm would leave them.
func (n *Network) headArrival(pkt Packet, route []int) (sim.Time, bool) {
	ser := n.serialization(pkt)
	t := n.eng.Now()
	for i, link := range route {
		next, out, ok := n.linkStep(pkt, link, i, len(route), t, ser)
		if !ok {
			n.recordDrop(pkt, out, true, next)
			return 0, false
		}
		if n.tr != nil {
			n.tr.PktHop(next, pkt.Src, pkt.Dst, pkt.Group, link, i)
		}
		t = next
	}
	return t, true
}

func (n *Network) deliver(pkt Packet) {
	r := n.recv[pkt.Dst]
	if r == nil {
		panic(fmt.Sprintf("netsim: packet for unattached host %d", pkt.Dst))
	}
	n.counters.Delivered++
	if n.tr != nil {
		n.tr.PktDeliver(n.eng.Now(), pkt.Src, pkt.Dst, pkt.Group, pkt.Kind)
	}
	r.Receive(pkt)
}

// Multicast models hardware replication in the switches (the QsNet
// broadcast primitive): one injection reaches every destination, sharing
// link occupancy where routes overlap (each unique link is charged once).
// Destinations equal to src are skipped. The injection-time impairment
// consultation sees the template packet (its Dst is whatever the caller
// set, conventionally -1), so destination-scoped rules cannot match
// there; a discard at injection loses the whole multicast (one drop).
// Per-hop consultations see the per-destination packet, and a discard
// prunes that link from the replication tree, losing every destination
// behind it (one drop per lost destination).
func (n *Network) Multicast(pkt Packet, dsts []int) {
	n.counters.Sent++
	n.counters.Bytes += uint64(pkt.Size)
	n.countKind(pkt.Kind)
	if n.tr != nil {
		n.tr.PktInject(n.eng.Now(), pkt.Src, pkt.Dst, pkt.Group, pkt.Kind)
	}
	if n.imp != nil {
		out := n.imp.Inject(pkt, n.eng.Now())
		if out.discards() {
			n.recordDrop(pkt, out, false, n.eng.Now())
			return
		}
		if out.Delay > 0 {
			n.eng.AfterEvent(out.Delay, n.getEvent(opMulticastBody, pkt, dsts))
			return
		}
	}
	n.multicastBody(pkt, dsts)
}

func (n *Network) multicastBody(pkt Packet, dsts []int) {
	ser := n.serialization(pkt)
	// Per-link head time, deduplicated across the destination routes so
	// shared trunk links are traversed (and occupied) once. A link a
	// per-hop impairment discarded is dead for the whole replication.
	// Hop consultations see the per-destination packet (Dst filled in),
	// so Dst-scoped rules prune exactly the branch serving that
	// destination; on a shared trunk the first destination to walk the
	// link decides for everyone behind it, mirroring how the worm forks
	// once per switch. The bookkeeping lives in epoch-stamped scratch
	// arrays indexed by link ID: bumping the epoch invalidates the
	// previous multicast's entries without clearing anything. The
	// scratch is allocated by the first multicast, so networks that
	// never replicate (Myrinet's) never pay for its four per-link arrays.
	sc := &n.mcast
	if sc.headSet == nil {
		*sc = newMcastScratch(len(n.busyUntil))
	}
	sc.epoch++
	ep := sc.epoch
	for _, dst := range dsts {
		if dst == pkt.Src {
			continue
		}
		p := pkt
		p.Dst = dst
		t := n.eng.Now()
		route := n.topo.Route(pkt.Src, dst)
		lost := false
		for i, link := range route {
			if sc.deadSet[link] == ep {
				n.recordDrop(p, sc.deadOut[link], true, t)
				lost = true
				break
			}
			if sc.headSet[link] == ep {
				t = sc.headAt[link]
				continue
			}
			next, out, ok := n.linkStep(p, link, i, len(route), t, ser)
			if !ok {
				sc.deadSet[link] = ep
				sc.deadOut[link] = out
				n.recordDrop(p, out, true, next)
				lost = true
				break
			}
			t = next
			if n.tr != nil {
				n.tr.PktHop(t, p.Src, p.Dst, p.Group, link, i)
			}
			sc.headSet[link] = ep
			sc.headAt[link] = t
		}
		if lost {
			continue
		}
		done := t.Add(ser)
		if n.tr != nil {
			n.tr.WireTime(p.Group, done.Sub(n.eng.Now()))
		}
		n.eng.ScheduleEvent(done, n.getEvent(opDeliver, p, nil))
	}
}
