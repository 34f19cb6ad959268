package metricsrv

import (
	"fmt"
	"io"
	"strings"

	"nicbarrier/internal/obs"
)

// Prometheus text exposition (format version 0.0.4), hand-rolled — the
// repository takes no dependencies, and the counter/gauge subset the
// obs snapshots need is a few dozen lines.
//
// Label scheme: every sample carries
// run="<name>",scope="<scope>",scope_index="<i>" — a run's scopes are
// separate simulated clusters (the data points of a registry scenario,
// or the shards of a partitioned workload, which deal each tenant to
// one shard), so nothing is pooled across them. A scenario may measure
// the same point twice, so names repeat within a run; the scope's index
// in the run (the one /snapshot tenant rows carry) keeps every series
// distinct.
// Per-tenant samples add tenant="<index>",kind="<op>" and come from the
// scope's tenant-merged view, which folds the groups a reconfiguration
// rebound to the same tenant into one series. Latency is exposed
// summary-style: _us{quantile=...} gauges plus _us_sum and _us_count,
// all per tenant.

// promEscape escapes a label value per the exposition format.
func promEscape(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// promFamily is one metric family: its exposition header, and how to
// write its samples for one scope (scope-level families) or one tenant
// (tenant-level families). Exactly one of scope and tenant is set.
type promFamily struct {
	name, help, typ string
	scope           func(sc obs.ScopeSnapshot) any
	tenant          func(w io.Writer, name, tl string, g obs.GroupSnapshot)
}

// tenantValue is the tenant writer of a family with one sample per
// tenant.
func tenantValue(v func(g obs.GroupSnapshot) any) func(io.Writer, string, string, obs.GroupSnapshot) {
	return func(w io.Writer, name, tl string, g obs.GroupSnapshot) {
		fmt.Fprintf(w, "%s{%s} %v\n", name, tl, v(g))
	}
}

// latencyValue is tenantValue for the latency families, which a tenant
// with no observed latency omits.
func latencyValue(v func(h obs.HistSnapshot) any) func(io.Writer, string, string, obs.GroupSnapshot) {
	return func(w io.Writer, name, tl string, g obs.GroupSnapshot) {
		if g.Latency.Count > 0 {
			fmt.Fprintf(w, "%s{%s} %v\n", name, tl, v(g.Latency))
		}
	}
}

var promFamilies = []promFamily{
	{"nicbarrier_snapshot_epoch", "Publication epoch of the scope's live snapshot (strictly increasing per scope).", "gauge",
		func(sc obs.ScopeSnapshot) any { return sc.Epoch }, nil},
	{"nicbarrier_snapshot_at_us", "Virtual time of the scope's last publication, simulated microseconds.", "gauge",
		func(sc obs.ScopeSnapshot) any { return sc.AtUS }, nil},
	{"nicbarrier_events_fired_total", "Engine events fired in the scope.", "counter",
		func(sc obs.ScopeSnapshot) any { return sc.EventsFired }, nil},
	{"nicbarrier_events_cancelled_total", "Engine events cancelled in the scope.", "counter",
		func(sc obs.ScopeSnapshot) any { return sc.EventsCancelled }, nil},
	{"nicbarrier_records_total", "Trace records emitted across the scope's tracks.", "counter",
		func(sc obs.ScopeSnapshot) any { return sc.Records }, nil},
	{"nicbarrier_ops_total", "Globally completed operations per tenant (live count).", "counter",
		nil, tenantValue(func(g obs.GroupSnapshot) any { return g.Ops })},
	{"nicbarrier_packets_sent_total", "Packets injected for the tenant's traffic.", "counter",
		nil, tenantValue(func(g obs.GroupSnapshot) any { return g.Sent })},
	{"nicbarrier_packets_dropped_total", "Packets dropped for the tenant's traffic.", "counter",
		nil, tenantValue(func(g obs.GroupSnapshot) any { return g.Dropped })},
	{"nicbarrier_drops_total", "Packet drops per tenant split by reason.", "counter",
		nil, func(w io.Writer, name, tl string, g obs.GroupSnapshot) {
			for _, d := range []struct {
				reason string
				n      uint64
			}{
				{"injected", g.Drops.Injected}, {"mid-route", g.Drops.MidRoute},
				{"rejected", g.Drops.Rejected}, {"fail-stop", g.Drops.FailStop},
			} {
				fmt.Fprintf(w, "%s{%s,reason=\"%s\"} %d\n", name, tl, d.reason, d.n)
			}
		}},
	{"nicbarrier_op_timeouts_total", "Recovery deadline expiries per tenant.", "counter",
		nil, tenantValue(func(g obs.GroupSnapshot) any { return g.Timeouts })},
	{"nicbarrier_evictions_total", "Members evicted per tenant.", "counter",
		nil, tenantValue(func(g obs.GroupSnapshot) any { return g.Evictions })},
	{"nicbarrier_retries_total", "Retried runs per tenant.", "counter",
		nil, tenantValue(func(g obs.GroupSnapshot) any { return g.Retries })},
	{"nicbarrier_queue_us_total", "Queue-wait attribution per tenant, simulated microseconds.", "counter",
		nil, tenantValue(func(g obs.GroupSnapshot) any { return g.QueueUS })},
	{"nicbarrier_wire_us_total", "Wire-occupancy attribution per tenant, simulated microseconds.", "counter",
		nil, tenantValue(func(g obs.GroupSnapshot) any { return g.WireUS })},
	{"nicbarrier_nic_us_total", "NIC-processing attribution per tenant, simulated microseconds.", "counter",
		nil, tenantValue(func(g obs.GroupSnapshot) any { return g.NICUS })},
	{"nicbarrier_latency_us", "Per-op latency quantiles per tenant, simulated microseconds.", "gauge",
		nil, func(w io.Writer, name, tl string, g obs.GroupSnapshot) {
			if h := g.Latency; h.Count > 0 {
				for _, q := range []struct {
					q string
					v float64
				}{{"0.5", h.P50US}, {"0.95", h.P95US}, {"0.99", h.P99US}} {
					fmt.Fprintf(w, "%s{%s,quantile=\"%s\"} %g\n", name, tl, q.q, q.v)
				}
			}
		}},
	{"nicbarrier_latency_us_sum", "Sum of per-op latencies per tenant, simulated microseconds.", "counter",
		nil, latencyValue(func(h obs.HistSnapshot) any { return float64(h.SumNS) / 1e3 })},
	{"nicbarrier_latency_us_count", "Observed per-op latencies per tenant.", "counter",
		nil, latencyValue(func(h obs.HistSnapshot) any { return h.Count })},
	{"nicbarrier_latency_us_max", "Maximum per-op latency per tenant, simulated microseconds.", "gauge",
		nil, latencyValue(func(h obs.HistSnapshot) any { return h.MaxUS })},
}

// promScope is one scope's samples to write: its labels, its snapshot
// and its tenant-merged view.
type promScope struct {
	labels  string
	sc      obs.ScopeSnapshot
	tenants []obs.GroupSnapshot
}

// writePrometheus writes every run's published metric state to w in
// the Prometheus text exposition format: family by family, each
// family's # HELP and # TYPE directly before all of its samples, so
// one family's samples are never split by another's.
func writePrometheus(w io.Writer, runs []*Run) {
	var scopes []promScope
	for _, run := range runs {
		rl := fmt.Sprintf(`run="%s"`, promEscape(run.Name))
		for i, sc := range run.snap().Scopes {
			scopes = append(scopes, promScope{
				labels:  fmt.Sprintf(`%s,scope="%s",scope_index="%d"`, rl, promEscape(sc.Name), i),
				sc:      sc,
				tenants: sc.MergeTenants(),
			})
		}
	}
	for _, f := range promFamilies {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		for _, ps := range scopes {
			if f.scope != nil {
				fmt.Fprintf(w, "%s{%s} %v\n", f.name, ps.labels, f.scope(ps.sc))
				continue
			}
			for _, g := range ps.tenants {
				f.tenant(w, f.name, fmt.Sprintf(`%s,tenant="%d",kind="%s"`, ps.labels, g.Tenant, promEscape(g.Kind)), g)
			}
		}
	}
}
