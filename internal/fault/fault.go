// Package fault is a composable fault-injection subsystem for the
// simulated interconnects. A Plan is an ordered pipeline of Rules; each
// Rule scopes one impairment Effect to a subset of the traffic (Match:
// src/dst/kind predicates) and a window of virtual time (Window), and is
// applied either at packet injection or per traversed hop. Plans implement
// netsim.Impairment, so they install directly onto a netsim.Network.
//
// The effect vocabulary follows what production network-impairment tools
// expose (tc-style latency/loss/bandwidth shaping, blocking with drop vs
// reject semantics, every-Nth and random loss modes) plus the
// simulation-only faults the paper's reliability story needs: burst loss
// from a Gilbert–Elliott two-state channel, whole-node crashes, and
// slowed NICs.
//
// Everything is deterministic for a given seed: a Plan owns one seeded
// sim.RNG, and rules draw from it in installation order.
package fault

import (
	"fmt"
	"sort"
	"strings"

	"nicbarrier/internal/netsim"
	"nicbarrier/internal/sim"
)

// NodeSet selects host IDs; nil selects every host.
type NodeSet map[int]bool

// Nodes builds a NodeSet from a list of host IDs.
func Nodes(ids ...int) NodeSet {
	s := make(NodeSet, len(ids))
	for _, id := range ids {
		s[id] = true
	}
	return s
}

// Match scopes a rule to a subset of the traffic. The zero value matches
// every packet.
type Match struct {
	// Src/Dst restrict the packet endpoints; nil means any.
	Src, Dst NodeSet
	// Kinds restricts the packet kind ("data", "ack", "barrier-coll",
	// ...); nil means any.
	Kinds map[string]bool
	// Groups restricts the process-group ID the packet carries (see
	// netsim.Packet.Group); nil means any. Group scoping is how a fault
	// targets one tenant's collective traffic on nodes that several
	// groups share.
	Groups map[int]bool
	// Bidirectional also accepts packets whose (Src, Dst) match the rule's
	// (Dst, Src) — the natural scope for link and node faults.
	Bidirectional bool
}

// Kinds builds the kind set of a Match.
func Kinds(kinds ...string) map[string]bool {
	s := make(map[string]bool, len(kinds))
	for _, k := range kinds {
		s[k] = true
	}
	return s
}

// Groups builds the group set of a Match.
func Groups(ids ...int) map[int]bool {
	s := make(map[int]bool, len(ids))
	for _, id := range ids {
		s[id] = true
	}
	return s
}

// link scopes a match to both directions of the host pair a<->b.
func link(a, b int) Match {
	return Match{Src: Nodes(a), Dst: Nodes(b), Bidirectional: true}
}

// node scopes a match to every packet sent or received by one host.
func node(id int) Match {
	return Match{Src: Nodes(id), Bidirectional: true}
}

// from scopes a match to packets sent by the given hosts.
func from(ids ...int) Match { return Match{Src: Nodes(ids...)} }

// Matches reports whether the packet falls in scope.
func (m Match) Matches(pkt netsim.Packet) bool {
	if m.Kinds != nil && !m.Kinds[pkt.Kind] {
		return false
	}
	if m.Groups != nil && !m.Groups[pkt.Group] {
		return false
	}
	if m.endpoints(pkt.Src, pkt.Dst) {
		return true
	}
	return m.Bidirectional && m.endpoints(pkt.Dst, pkt.Src)
}

func (m Match) endpoints(src, dst int) bool {
	if m.Src != nil && !m.Src[src] {
		return false
	}
	if m.Dst != nil && !m.Dst[dst] {
		return false
	}
	return true
}

// Window is a half-open virtual-time interval [From, To) during which a
// rule is active. The zero value is always active; To == 0 means no end.
type Window struct {
	From, To sim.Time
}

// Between builds a window from microsecond bounds; toUS <= 0 means no end.
func Between(fromUS, toUS float64) Window {
	w := Window{From: sim.Time(sim.Micros(fromUS))}
	if toUS > 0 {
		w.To = sim.Time(sim.Micros(toUS))
	}
	return w
}

// Contains reports whether t falls inside the window.
func (w Window) Contains(t sim.Time) bool {
	if t < w.From {
		return false
	}
	return w.To == 0 || t < w.To
}

// Stage selects where a rule is evaluated.
type Stage int

// Rule evaluation stages.
const (
	// AtInject evaluates once per packet when it enters the network — the
	// right stage for loss, crash and whole-path delay effects.
	AtInject Stage = iota
	// PerHop evaluates once per traversed link, at the virtual time the
	// packet head reaches it — the right stage for faults that should be
	// route- and time-accurate mid-path (a windowed partition kills a
	// packet already in flight when its head meets the dead hop).
	PerHop
)

// String implements fmt.Stringer.
func (s Stage) String() string {
	switch s {
	case AtInject:
		return "inject"
	case PerHop:
		return "per-hop"
	default:
		return fmt.Sprintf("Stage(%d)", int(s))
	}
}

// Effect decides the impairment outcome for one matching packet. Stateful
// effects (every-Nth counters, Gilbert–Elliott channel state) mutate
// themselves; Clone must return an independent copy with reset state so
// one Rule value can seed many Plans (e.g. parallel harness sweeps).
type Effect interface {
	Apply(pkt netsim.Packet, now sim.Time, rng *sim.RNG) netsim.Outcome
	Clone() Effect
}

// Rule is one scoped, windowed impairment.
type Rule struct {
	// Name labels the rule in stats tables; Plan invents one if empty.
	Name   string
	Match  Match
	Window Window
	Where  Stage
	Effect Effect
}

// RuleStats accounts one rule's activity inside a running Plan.
type RuleStats struct {
	Name            string
	Matched         uint64 // packets in scope during the active window
	Dropped         uint64 // discarded with drop semantics
	Rejected        uint64 // discarded with reject semantics
	Delayed         uint64 // packets that received extra latency
	TotalDelay      sim.Duration
	LastDecisionAt  sim.Time
	FirstDecisionAt sim.Time
	decided         bool
}

// Plan is a composable impairment pipeline over one network. It implements
// netsim.Impairment. Rules are evaluated in order; drops short-circuit
// nothing (every matching rule still accounts the packet), outcomes merge
// (any discard wins, delays add). Not safe for concurrent use — one Plan
// per simulated network, like every other simulator component.
type Plan struct {
	rng   *sim.RNG
	rules []Rule
	stats []RuleStats
}

// NewPlan builds a plan with its own deterministic RNG. Rule effects are
// cloned, so the same Rule values can be handed to many plans.
func NewPlan(seed uint64, rules ...Rule) *Plan {
	p := &Plan{rng: sim.NewRNG(seed)}
	for _, r := range rules {
		p.Add(r)
	}
	return p
}

// Add appends one rule (cloning its effect) and returns the plan for
// chaining.
func (p *Plan) Add(r Rule) *Plan {
	if r.Effect == nil {
		panic("fault: rule without effect")
	}
	r.Effect = r.Effect.Clone()
	if r.Name == "" {
		r.Name = fmt.Sprintf("rule%d(%T)", len(p.rules), r.Effect)
	}
	p.rules = append(p.rules, r)
	p.stats = append(p.stats, RuleStats{Name: r.Name})
	return p
}

// Inject implements netsim.Impairment.
func (p *Plan) Inject(pkt netsim.Packet, now sim.Time) netsim.Outcome {
	return p.apply(AtInject, pkt, now)
}

// Hop implements netsim.Impairment.
func (p *Plan) Hop(pkt netsim.Packet, link, hop, hops int, headAt sim.Time) netsim.Outcome {
	return p.apply(PerHop, pkt, headAt)
}

func (p *Plan) apply(stage Stage, pkt netsim.Packet, t sim.Time) netsim.Outcome {
	var out netsim.Outcome
	for i := range p.rules {
		r := &p.rules[i]
		if r.Where != stage || !r.Window.Contains(t) || !r.Match.Matches(pkt) {
			continue
		}
		o := r.Effect.Apply(pkt, t, p.rng)
		st := &p.stats[i]
		st.Matched++
		if !st.decided {
			st.FirstDecisionAt, st.decided = t, true
		}
		st.LastDecisionAt = t
		switch {
		case o.Reject:
			st.Rejected++
		case o.Drop:
			st.Dropped++
		}
		if o.Delay > 0 {
			st.Delayed++
			st.TotalDelay += o.Delay
		}
		out.Drop = out.Drop || o.Drop
		out.Reject = out.Reject || o.Reject
		out.FailStop = out.FailStop || o.FailStop
		out.Delay += o.Delay
	}
	return out
}

// Validate returns one human-readable warning per rule that can wedge a
// collective forever: blocking effects (Crash, Partition, BlockPort)
// whose window never closes (Window.To == 0). Such a rule silences a
// node or link permanently, so any barrier spanning it deadlocks unless
// the communicator layer runs with an operation deadline
// (comm.RecoveryConfig) that detects the stall and evicts the member.
// An empty slice means no rule is indefinitely blocking.
func (p *Plan) Validate() []string {
	var warns []string
	for i := range p.rules {
		r := &p.rules[i]
		if _, blocking := r.Effect.(block); !blocking {
			continue
		}
		if r.Window.To != 0 {
			continue
		}
		warns = append(warns, fmt.Sprintf(
			"rule %q blocks forever (window has no end): barriers spanning it deadlock unless an op deadline is set",
			r.Name))
	}
	return warns
}

// Stats returns a snapshot of per-rule accounting, in rule order.
func (p *Plan) Stats() []RuleStats {
	out := make([]RuleStats, len(p.stats))
	copy(out, p.stats)
	return out
}

// String renders the per-rule accounting as an aligned table.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %9s %9s %9s %9s %12s\n",
		"rule", "matched", "dropped", "rejected", "delayed", "total-delay")
	for _, st := range p.stats {
		fmt.Fprintf(&b, "%-28s %9d %9d %9d %9d %12s\n",
			st.Name, st.Matched, st.Dropped, st.Rejected, st.Delayed, st.TotalDelay)
	}
	return b.String()
}

// --- effects ---

// RandomLoss drops matching packets independently with probability Rate.
type RandomLoss struct {
	Rate float64
}

// Apply implements Effect.
func (e RandomLoss) Apply(_ netsim.Packet, _ sim.Time, rng *sim.RNG) netsim.Outcome {
	if e.Rate <= 0 {
		return netsim.Outcome{}
	}
	return netsim.Outcome{Drop: rng.Bool(e.Rate)}
}

// Clone implements Effect.
func (e RandomLoss) Clone() Effect { return RandomLoss{Rate: e.Rate} }

// EveryNth deterministically drops every N-th matching packet of each
// (group, src, dst) flow (the N-th, 2N-th, ... in per-flow arrival
// order); Offset shifts the phase so the first drop is flow packet
// N-Offset. N <= 0 never drops.
//
// Counting is per flow, not global, for two reasons: it matches what
// production impairment tools do (per-connection every-Nth modes), and a
// global counter resonates with deterministic retransmission — with
// global N=2, a stuck receiver's NACK and the sender's resend form an
// exact 2-packet cycle whose parity never shifts, so the resend is
// dropped forever and the protocol livelocks. A per-flow counter makes
// any retry on the same flow advance that flow's phase, so recovery is
// guaranteed. Flows are additionally keyed by the packet's group ID so
// that when several tenants share a node pair, one tenant's traffic
// cannot advance (and thereby skew) another tenant's drop phase.
type EveryNth struct {
	N      int
	Offset int

	seen map[[3]int]int
}

// Apply implements Effect.
func (e *EveryNth) Apply(pkt netsim.Packet, _ sim.Time, _ *sim.RNG) netsim.Outcome {
	if e.N <= 0 {
		return netsim.Outcome{}
	}
	if e.seen == nil {
		e.seen = make(map[[3]int]int)
	}
	flow := [3]int{pkt.Group, pkt.Src, pkt.Dst}
	e.seen[flow]++
	return netsim.Outcome{Drop: (e.seen[flow]+e.Offset)%e.N == 0}
}

// Clone implements Effect.
func (e *EveryNth) Clone() Effect { return &EveryNth{N: e.N, Offset: e.Offset} }

// gilbertElliott is the classic two-state burst-loss channel: the channel
// flips between a good and a bad state with per-packet transition
// probabilities, and drops with a state-dependent probability. Mean burst
// length is 1/PBadToGood packets; stationary bad-state occupancy is
// PGoodToBad/(PGoodToBad+PBadToGood). The state transition is evaluated
// before the drop decision, so PGoodToBad=1, PBadToGood=1 alternates
// deterministically starting in the bad state.
type gilbertElliott struct {
	PGoodToBad, PBadToGood float64
	// DropGood/DropBad are per-state drop probabilities (classic GE:
	// DropGood=0, DropBad=1).
	DropGood, DropBad float64

	bad bool
}

// BurstParams validates a (loss rate, mean burst length) pair for the
// classic drop-all-in-bad-state Gilbert–Elliott parameterization. The
// loss rate equals the stationary bad-state occupancy, which cannot
// exceed meanBurstLen/(meanBurstLen+1) — beyond that the good->bad
// transition probability would have to exceed 1.
func BurstParams(lossRate, meanBurstLen float64) error {
	if lossRate <= 0 || lossRate >= 1 {
		return fmt.Errorf("fault: burst loss rate %v outside (0,1)", lossRate)
	}
	if meanBurstLen < 1 {
		return fmt.Errorf("fault: mean burst length %v < 1", meanBurstLen)
	}
	if maxRate := meanBurstLen / (meanBurstLen + 1); lossRate > maxRate {
		return fmt.Errorf("fault: burst loss rate %v unreachable with mean burst length %v (max %v)",
			lossRate, meanBurstLen, maxRate)
	}
	return nil
}

// burst builds a Gilbert–Elliott effect with an overall loss rate and a
// mean burst length (in packets), using the classic drop-all-in-bad-state
// parameterization. It panics on parameters BurstParams rejects.
func burst(lossRate, meanBurstLen float64) *gilbertElliott {
	if err := BurstParams(lossRate, meanBurstLen); err != nil {
		panic(err)
	}
	pBG := 1 / meanBurstLen
	pGB := lossRate / (meanBurstLen * (1 - lossRate))
	return &gilbertElliott{PGoodToBad: pGB, PBadToGood: pBG, DropBad: 1}
}

// Apply implements Effect.
func (e *gilbertElliott) Apply(_ netsim.Packet, _ sim.Time, rng *sim.RNG) netsim.Outcome {
	if e.bad {
		if rng.Bool(e.PBadToGood) {
			e.bad = false
		}
	} else if rng.Bool(e.PGoodToBad) {
		e.bad = true
	}
	p := e.DropGood
	if e.bad {
		p = e.DropBad
	}
	return netsim.Outcome{Drop: rng.Bool(p)}
}

// Clone implements Effect.
func (e *gilbertElliott) Clone() Effect {
	return &gilbertElliott{
		PGoodToBad: e.PGoodToBad, PBadToGood: e.PBadToGood,
		DropGood: e.DropGood, DropBad: e.DropBad,
	}
}

// Delay adds Fixed latency plus uniform jitter in [0, Jitter) to matching
// packets.
type Delay struct {
	Fixed, Jitter sim.Duration
}

// Apply implements Effect.
func (e Delay) Apply(_ netsim.Packet, _ sim.Time, rng *sim.RNG) netsim.Outcome {
	d := e.Fixed
	if e.Jitter > 0 {
		d += sim.Duration(rng.Intn(int(e.Jitter)))
	}
	return netsim.Outcome{Delay: d}
}

// Clone implements Effect.
func (e Delay) Clone() Effect { return Delay{Fixed: e.Fixed, Jitter: e.Jitter} }

// Throttle charges matching packets the extra serialization time of a
// slower link: size/BandwidthMBps minus size/LineRateMBps (the full rate
// the network already charges). LineRateMBps <= 0 charges the whole
// throttled serialization on top.
type Throttle struct {
	BandwidthMBps float64
	LineRateMBps  float64
}

// Apply implements Effect.
func (e Throttle) Apply(pkt netsim.Packet, _ sim.Time, _ *sim.RNG) netsim.Outcome {
	if e.BandwidthMBps <= 0 {
		panic(fmt.Sprintf("fault: throttle bandwidth %v", e.BandwidthMBps))
	}
	d := sim.BytesAt(int64(pkt.Size), e.BandwidthMBps)
	if e.LineRateMBps > 0 {
		d -= sim.BytesAt(int64(pkt.Size), e.LineRateMBps)
	}
	if d < 0 {
		d = 0
	}
	return netsim.Outcome{Delay: d}
}

// Clone implements Effect.
func (e Throttle) Clone() Effect { return e }

// block unconditionally discards matching packets, with drop semantics by
// default or reject semantics when Reject is set (the network notifies its
// reject observer).
type block struct {
	Reject bool
	// FailStop marks the discard as a whole-node failure rather than a
	// link impairment. Only Crash sets it: hardware-reliable networks
	// (netsim.DelayOnly) strip link-level blocks but must honor
	// fail-stop ones — reliability cannot make a dead node participate.
	FailStop bool
}

// Apply implements Effect.
func (e block) Apply(netsim.Packet, sim.Time, *sim.RNG) netsim.Outcome {
	if e.Reject {
		return netsim.Outcome{Reject: true, FailStop: e.FailStop}
	}
	return netsim.Outcome{Drop: true, FailStop: e.FailStop}
}

// Clone implements Effect.
func (e block) Clone() Effect { return e }

// --- rule constructors for the common fault shapes ---

// Loss builds an injection-time random-loss rule over the whole network.
func Loss(rate float64) Rule {
	return Rule{Name: fmt.Sprintf("loss-%.3g", rate), Effect: RandomLoss{Rate: rate}}
}

// DropEveryNth builds a deterministic every-N-th-packet drop rule.
func DropEveryNth(n int) Rule {
	return Rule{Name: fmt.Sprintf("every-%dth", n), Effect: &EveryNth{N: n}}
}

// BurstLoss builds a Gilbert–Elliott burst-loss rule.
func BurstLoss(lossRate, meanBurstLen float64) Rule {
	return Rule{
		Name:   fmt.Sprintf("burst-%.3g-len%.3g", lossRate, meanBurstLen),
		Effect: burst(lossRate, meanBurstLen),
	}
}

// Latency builds a delay+jitter rule over the whole network.
func Latency(fixed, jitter sim.Duration) Rule {
	return Rule{
		Name:   fmt.Sprintf("delay-%v+%v", fixed, jitter),
		Effect: Delay{Fixed: fixed, Jitter: jitter},
	}
}

// Bandwidth builds a throttling rule: matching packets pay the extra
// serialization of a limitMBps link relative to the lineMBps full rate.
func Bandwidth(limitMBps, lineMBps float64) Rule {
	return Rule{
		Name:   fmt.Sprintf("throttle-%.4gMBps", limitMBps),
		Effect: Throttle{BandwidthMBps: limitMBps, LineRateMBps: lineMBps},
	}
}

// Partition builds a per-hop blocking rule over both directions of the
// host pair a<->b during w — "partition links a<->b from t1 to t2".
// Evaluated per hop, so a packet already in flight dies at the first hop
// whose head time falls inside the window.
func Partition(a, b int, w Window) Rule {
	return Rule{
		Name:   fmt.Sprintf("partition-%d<->%d", a, b),
		Match:  link(a, b),
		Window: w,
		Where:  PerHop,
		Effect: block{},
	}
}

// BlockPort builds an injection-time blocking rule for everything the host
// sends or receives; reject selects reject semantics.
func BlockPort(host int, reject bool, w Window) Rule {
	mode := "drop"
	if reject {
		mode = "reject"
	}
	return Rule{
		Name:   fmt.Sprintf("block-%d-%s", host, mode),
		Match:  node(host),
		Window: w,
		Effect: block{Reject: reject},
	}
}

// Crash models a whole-node (fail-stop) failure during w: everything the
// host sends or receives is silently dropped, on Myrinet and — unlike
// link-level loss — on hardware-reliable Quadrics too (the FailStop mark
// survives netsim.DelayOnly). A crash with no end (w.To == 0) will
// deadlock any barrier the node participates in unless the communicator
// layer runs with an operation deadline (comm.RecoveryConfig), which
// detects the silence and evicts the member; Plan.Validate flags such
// windows so deadline-less runs do not hang silently.
func Crash(host int, w Window) Rule {
	return Rule{
		Name:   fmt.Sprintf("crash-%d", host),
		Match:  node(host),
		Window: w,
		Effect: block{FailStop: true},
	}
}

// SlowNIC models a degraded NIC: every packet the node injects pays an
// extra per-packet processing delay (the scaled-firmware analogue of a
// busy or downclocked LANai).
func SlowNIC(node int, perPacket sim.Duration) Rule {
	return Rule{
		Name:   fmt.Sprintf("slow-nic-%d", node),
		Match:  from(node),
		Effect: Delay{Fixed: perPacket},
	}
}

// Describe renders a stable one-line summary of a rule set, for CLI
// scenario listings.
func Describe(rules []Rule) string {
	names := make([]string, len(rules))
	for i, r := range rules {
		names[i] = r.Name
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
