package obs

import (
	"fmt"
	"sort"
	"strings"
)

// HistSnapshot is the exported summary of one latency histogram:
// human-facing statistics in the microsecond units the rest of the
// repository reports, plus the exact machine-facing state (nanosecond
// sum, maximum and nonzero bucket bins) that lets two snapshots merge
// without quantile drift — the sharded-workload and serving paths pool
// per-shard histograms through it.
type HistSnapshot struct {
	Count  uint64    `json:"count"`
	MeanUS float64   `json:"meanUS"`
	P50US  float64   `json:"p50US"`
	P95US  float64   `json:"p95US"`
	P99US  float64   `json:"p99US"`
	MaxUS  float64   `json:"maxUS"`
	SumNS  int64     `json:"sumNS"`
	MaxNS  int64     `json:"maxNS"`
	Bins   []HistBin `json:"bins,omitempty"`
}

// SnapshotHistogram summarizes h.
func SnapshotHistogram(h *Histogram) HistSnapshot {
	return HistSnapshot{
		Count:  h.Count(),
		MeanUS: h.Mean().Micros(),
		P50US:  h.Quantile(0.50).Micros(),
		P95US:  h.Quantile(0.95).Micros(),
		P99US:  h.Quantile(0.99).Micros(),
		MaxUS:  h.Max().Micros(),
		SumNS:  h.sum,
		MaxNS:  h.max,
		Bins:   h.Bins(),
	}
}

// mergeHistSnapshots pools two exported histograms exactly: bucket
// counts add bin by bin, the sum and maximum stay exact, and the
// quantiles are recomputed over the pooled buckets — the same numbers
// a single histogram fed both streams would report.
func mergeHistSnapshots(a, b HistSnapshot) HistSnapshot {
	var h Histogram
	for _, bin := range a.Bins {
		h.addBin(bin.V, bin.N)
	}
	for _, bin := range b.Bins {
		h.addBin(bin.V, bin.N)
	}
	h.sum = a.SumNS + b.SumNS
	h.max = a.MaxNS
	if b.MaxNS > h.max {
		h.max = b.MaxNS
	}
	return SnapshotHistogram(&h)
}

// DropCounts is the Result.Drops-style breakdown of one group's packet
// discards by reason (see DropReason for the semantics).
type DropCounts struct {
	Injected uint64 `json:"injected"`
	MidRoute uint64 `json:"midRoute"`
	Rejected uint64 `json:"rejected"`
	FailStop uint64 `json:"failStop"`
}

// Sum reports the total across every reason.
func (d DropCounts) Sum() uint64 {
	return d.Injected + d.MidRoute + d.Rejected + d.FailStop
}

// GroupSnapshot is the exported metric stream of one group (tenant).
type GroupSnapshot struct {
	Group int `json:"group"`
	// Tenant is the workload-wide tenant index bound via
	// BindGroupTenant, or -1 when the group was never bound (harness
	// sessions, single-group measurements).
	Tenant int    `json:"tenant"`
	Kind   string `json:"kind,omitempty"` // op label ("barrier", ...); empty when no span was recorded
	// Ops counts globally completed operations, live: every group emits
	// one span per op at its completion (see Scope.OpSpan).
	Ops uint64 `json:"ops"`
	// Decomposition attribution sums, microseconds. These sum
	// concurrent activity, so they can exceed the group's wall-clock.
	QueueUS float64 `json:"queueUS"`
	WireUS  float64 `json:"wireUS"`
	NICUS   float64 `json:"nicUS"`
	Sent    uint64  `json:"sent"`
	Dropped uint64  `json:"dropped"`
	// Drops splits Dropped by reason; its Sum always equals Dropped.
	Drops DropCounts `json:"drops"`
	// Recovery accounting (comm.RecoveryConfig): deadline expiries,
	// member evictions and retried runs observed for the group.
	Timeouts  uint64       `json:"timeouts"`
	Evictions uint64       `json:"evictions"`
	Retries   uint64       `json:"retries"`
	Latency   HistSnapshot `json:"latency"`
}

// ScopeSnapshot is the exported state of one scope.
type ScopeSnapshot struct {
	Name string `json:"name"`
	// Epoch and AtUS stamp live publications (see live.go): Epoch is
	// the scope's strictly increasing publication counter, AtUS the
	// virtual time of publication in microseconds. Both are zero on
	// quiescent Tracer.Snapshot reads.
	Epoch           uint64          `json:"epoch"`
	AtUS            float64         `json:"atUS"`
	EventsFired     uint64          `json:"eventsFired"`
	EventsCancelled uint64          `json:"eventsCancelled"`
	Records         uint64          `json:"records"` // total emitted across every track
	Groups          []GroupSnapshot `json:"groups,omitempty"`
}

// Snapshot is the metrics snapshot API: the full exported state of a
// tracer, safe to serialize or serve. Take it only after the traced
// simulations have finished — for consistent mid-run reads, use the
// published LiveSnapshot path instead (live.go).
type Snapshot struct {
	Scopes []ScopeSnapshot `json:"scopes"`
}

// MergeTenants pools the snapshot's per-group metrics across scopes by
// bound tenant identity: groups carrying the same Tenant index merge
// into one row — counters sum, latency histograms pool exactly through
// their bins — and unbound groups (Tenant < 0) are omitted. Rows come
// back in tenant order. This is what makes a sharded workload's
// snapshot read like the unsharded one: each shard numbers its groups
// locally, but the tenant binding is workload-wide, so the merged view
// reports every tenant exactly once whatever the partition count. A
// merged row keeps the first contributing group's ID.
func (s Snapshot) MergeTenants() []GroupSnapshot { return mergeTenants(s.Scopes...) }

// MergeTenants is the scope's own tenant-merged view: the groups a
// reconfiguration rebound to one tenant fold into one row, and nothing
// is pooled with another scope. A registry scenario's scopes are
// unrelated data points, so /metrics and /snapshot both report tenants
// this way.
func (sc ScopeSnapshot) MergeTenants() []GroupSnapshot { return mergeTenants(sc) }

func mergeTenants(scopes ...ScopeSnapshot) []GroupSnapshot {
	byTenant := map[int]*GroupSnapshot{}
	var order []int
	for _, sc := range scopes {
		for _, g := range sc.Groups {
			if g.Tenant < 0 {
				continue
			}
			acc := byTenant[g.Tenant]
			if acc == nil {
				cp := g
				byTenant[g.Tenant] = &cp
				order = append(order, g.Tenant)
				continue
			}
			if acc.Kind == "" {
				acc.Kind = g.Kind
			}
			acc.Ops += g.Ops
			acc.QueueUS += g.QueueUS
			acc.WireUS += g.WireUS
			acc.NICUS += g.NICUS
			acc.Sent += g.Sent
			acc.Dropped += g.Dropped
			acc.Drops.Injected += g.Drops.Injected
			acc.Drops.MidRoute += g.Drops.MidRoute
			acc.Drops.Rejected += g.Drops.Rejected
			acc.Drops.FailStop += g.Drops.FailStop
			acc.Timeouts += g.Timeouts
			acc.Evictions += g.Evictions
			acc.Retries += g.Retries
			acc.Latency = mergeHistSnapshots(acc.Latency, g.Latency)
		}
	}
	sort.Ints(order)
	out := make([]GroupSnapshot, 0, len(order))
	for _, t := range order {
		out = append(out, *byTenant[t])
	}
	return out
}

// Snapshot exports the tracer's current metric state.
func (tr *Tracer) Snapshot() Snapshot {
	var out Snapshot
	for _, s := range tr.Scopes() {
		out.Scopes = append(out.Scopes, s.Snapshot())
	}
	return out
}

// Snapshot exports the scope's current metric state. Like every read of
// a scope's live accumulators it must not race the scope's writer: call
// it from the goroutine driving the scope's engine, or after that
// goroutine is done.
func (s *Scope) Snapshot() ScopeSnapshot {
	ss := ScopeSnapshot{
		Name:            s.name,
		EventsFired:     s.eventsFired,
		EventsCancelled: s.eventsCancelled,
	}
	for _, t := range s.allTracks() {
		ss.Records += t.ring.total
	}
	for gid := range s.groups {
		g := &s.groups[gid]
		if g.ops == 0 && g.sent == 0 && g.dropped == 0 && g.wireNS == 0 &&
			g.nicNS == 0 && g.timeouts == 0 && g.evictions == 0 && g.retries == 0 {
			continue
		}
		ss.Groups = append(ss.Groups, GroupSnapshot{
			Group:   gid,
			Tenant:  g.tenant - 1,
			Kind:    g.kind,
			Ops:     g.ops,
			QueueUS: float64(g.queueNS) / 1e3,
			WireUS:  float64(g.wireNS) / 1e3,
			NICUS:   float64(g.nicNS) / 1e3,
			Sent:    g.sent,
			Dropped: g.dropped,
			Drops: DropCounts{
				Injected: g.drops[DropInjected],
				MidRoute: g.drops[DropMidRoute],
				Rejected: g.drops[DropRejected],
				FailStop: g.drops[DropFailStop],
			},
			Timeouts:  g.timeouts,
			Evictions: g.evictions,
			Retries:   g.retries,
			Latency:   SnapshotHistogram(&g.lat),
		})
	}
	return ss
}

func (s *Scope) allTracks() []*Track {
	var out []*Track
	if s.engine != nil {
		out = append(out, s.engine)
	}
	for _, list := range [][]*Track{s.nodes, s.nics, s.tenants} {
		for _, t := range list {
			if t != nil {
				out = append(out, t)
			}
		}
	}
	return out
}

// OpDecomp is one row of the latency-decomposition table: where an op
// type's time went, split into queue-wait, wire and NIC-processing
// attribution. Shares are fractions of the attributed total (queue +
// wire + NIC); the buckets sum concurrent activity, so they describe
// where effort goes, not wall-clock.
type OpDecomp struct {
	Kind                            string
	Ops                             uint64
	QueueUS, WireUS, NICUS          float64
	QueueShare, WireShare, NICShare float64
}

func (d *OpDecomp) fillShares() {
	total := d.QueueUS + d.WireUS + d.NICUS
	if total <= 0 {
		return
	}
	d.QueueShare = d.QueueUS / total
	d.WireShare = d.WireUS / total
	d.NICShare = d.NICUS / total
}

// DecompByKind aggregates a snapshot's per-group attribution sums by
// op kind. Groups that recorded no op span contribute under the kind
// "barrier" when they saw traffic (harness sessions trace wire/NIC
// time without comm-level spans) and are dropped when idle.
func DecompByKind(snap Snapshot) []OpDecomp {
	acc := map[string]*OpDecomp{}
	for _, sc := range snap.Scopes {
		for _, g := range sc.Groups {
			kind := g.Kind
			if kind == "" {
				if g.WireUS == 0 && g.NICUS == 0 {
					continue
				}
				kind = "barrier"
			}
			d := acc[kind]
			if d == nil {
				d = &OpDecomp{Kind: kind}
				acc[kind] = d
			}
			d.Ops += g.Ops
			d.QueueUS += g.QueueUS
			d.WireUS += g.WireUS
			d.NICUS += g.NICUS
		}
	}
	out := make([]OpDecomp, 0, len(acc))
	for _, d := range acc {
		d.fillShares()
		out = append(out, *d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Kind < out[j].Kind })
	return out
}

// Decomp aggregates this scope's per-group phase attribution into
// per-op-kind decomposition rows; see DecompByKind.
func (s *Scope) Decomp() []OpDecomp {
	return DecompByKind(Snapshot{Scopes: []ScopeSnapshot{s.Snapshot()}})
}

// FormatDecomp renders a latency-decomposition table (queue/wire/NIC
// attribution and shares per op type). Empty input renders an
// explanatory line instead of an empty table.
func FormatDecomp(rows []OpDecomp) string {
	if len(rows) == 0 {
		return "latency decomposition: no attributed time recorded\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "latency decomposition (attributed time per op type)\n")
	fmt.Fprintf(&b, "  %-10s %8s %12s %12s %12s %7s %7s %7s\n",
		"op", "ops", "queue(us)", "wire(us)", "nic(us)", "queue%", "wire%", "nic%")
	for _, d := range rows {
		fmt.Fprintf(&b, "  %-10s %8d %12.2f %12.2f %12.2f %6.1f%% %6.1f%% %6.1f%%\n",
			d.Kind, d.Ops, d.QueueUS, d.WireUS, d.NICUS,
			100*d.QueueShare, 100*d.WireShare, 100*d.NICShare)
	}
	return b.String()
}
