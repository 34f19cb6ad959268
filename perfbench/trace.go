package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"nicbarrier/internal/comm"
	"nicbarrier/internal/obs"
	"nicbarrier/internal/sim"
	"nicbarrier/internal/topo"
)

// tracing collects one traced repetition: host-time spans around the
// benchmark's calls into each layer, engine queue-depth samples, obs
// scopes for the simulated latency decomposition, and layer counters.
// A nil *tracing is the untraced run: every method is a no-op (span still
// runs its function), so workloads call them unconditionally.
type tracing struct {
	origin   time.Time
	spans    []span
	open     []int // indices of the spans enclosing the current call
	tracer   *obs.Tracer
	scopes   []*obs.Scope
	myrinet  []bool // scopes[i] traces a Myrinet cluster
	samplers []*depthSampler
	counters map[string]float64
}

// span is one host-time interval around a call into a layer.
type span struct {
	name       string
	start, end time.Duration // since the rep's origin
	parent     int           // index into spans, -1 at top level
}

// tracePerTrack bounds each obs track's ring: a 1024-node cluster has
// ~2k tracks, and the default ring would hold half a gigabyte.
const tracePerTrack = 64

func newTracing() *tracing {
	return &tracing{
		origin:   time.Now(),
		tracer:   obs.NewTracerSize(tracePerTrack),
		counters: map[string]float64{},
	}
}

func (t *tracing) span(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.origin), parent: parent})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	fn()
	t.open = t.open[:len(t.open)-1]
	t.spans[i].end = time.Since(t.origin)
}

// spanSeconds sums the duration of every span with the given name.
func (t *tracing) spanSeconds(name string) float64 {
	var d time.Duration
	for _, s := range t.spans {
		if s.name == name {
			d += s.end - s.start
		}
	}
	return d.Seconds()
}

func (t *tracing) add(name string, v float64) {
	if t != nil {
		t.counters[name] += v
	}
}

// depthSampler is a sim.EventObserver counting fired and cancelled
// events and sampling the engine's pending-event count every 64th fire.
type depthSampler struct {
	eng              *sim.Engine
	fired, cancelled uint64
	samples          uint64
	depthSum         float64
	depthMax         int
}

const depthEvery = 64

func (d *depthSampler) EventFired(sim.Time) {
	d.fired++
	if d.fired%depthEvery == 0 {
		p := d.eng.Pending()
		d.samples++
		d.depthSum += float64(p)
		d.depthMax = max(d.depthMax, p)
	}
}

func (d *depthSampler) EventCancelled(sim.Time) { d.cancelled++ }

func (t *tracing) observe(eng *sim.Engine) {
	if t == nil {
		return
	}
	d := &depthSampler{eng: eng}
	eng.SetObserver(d)
	t.samplers = append(t.samplers, d)
}

// attach gives a communicator cluster (and its backend) its own obs
// scope, which records the queue/wire/NIC latency decomposition.
func (t *tracing) attach(cl *comm.Cluster, name string) {
	if t == nil {
		return
	}
	sc := t.tracer.NewScope(name)
	cl.SetTracer(sc)
	t.scopes = append(t.scopes, sc)
	t.myrinet = append(t.myrinet, cl.My != nil)
}

// buildTopo builds, inside a span, the fat tree a backend cluster of n
// hosts builds internally, and returns it for route replay. Crossbar
// clusters (n <= 16) and untraced runs return nil.
func (t *tracing) buildTopo(n, arity int) topo.Topology {
	if t == nil || n <= 16 {
		return nil
	}
	var tp topo.Topology
	t.span("topo.MinFatTree", func() { tp = topo.MinFatTree(arity, n) })
	return tp
}

// maxRoutes caps route replay so the 64k workload's replay stays short.
const maxRoutes = 1 << 20

// routePairs replays the dissemination peer pairs of a group over
// members through tp.Route and accumulates the host time per route.
func (t *tracing) routePairs(tp topo.Topology, members []int) {
	if t == nil || tp == nil {
		return
	}
	pairs := disseminationPairs(members)
	if len(pairs) > maxRoutes {
		pairs = pairs[:maxRoutes]
	}
	hops := 0
	d := timeIt(func() {
		for _, pr := range pairs {
			hops += len(tp.Route(pr[0], pr[1]))
		}
	})
	if hops == 0 && len(pairs) > 0 {
		panic("perfbench: route replay found no links")
	}
	t.add("topo.route_ns_total", float64(d.Nanoseconds()))
	t.add("topo.routes", float64(len(pairs)))
}

// countCluster adds a finished cluster's wire and NIC counters.
func (t *tracing) countCluster(cl *comm.Cluster) {
	if t == nil {
		return
	}
	if cl.My != nil {
		net := cl.My.Net.Counters()
		t.add("netsim.sent", float64(net.Sent))
		t.add("netsim.dropped", float64(net.Dropped))
		st := cl.My.Stats()
		t.add("myrinet.coll_sent", float64(st.CollSent))
		t.add("myrinet.coll_resent", float64(st.CollResent))
		t.add("myrinet.nacks", float64(st.NacksSent))
		return
	}
	net := cl.El.Net.Counters()
	t.add("netsim.sent", float64(net.Sent))
	t.add("netsim.dropped", float64(net.Dropped))
	t.add("elan.rdmas", float64(cl.El.Stats().RDMAsSent))
}

// layerCounters turns one traced rep, whose set-up took setup and whose
// measured run fired events simulation events, into its deterministic
// and host-timed per-layer values (everything except the CPU shares, GC figures and tracing
// overhead, which the runner adds). The queue-depth sampler sees only
// engines the benchmark builds itself.
func (t *tracing) layerCounters(setup time.Duration, events uint64) map[string]float64 {
	c := t.counters
	ops := c["ops"]
	m := map[string]float64{}

	var fired, cancelled, samples uint64
	var depthSum float64
	depthMax := 0
	for _, d := range t.samplers {
		fired += d.fired
		cancelled += d.cancelled
		samples += d.samples
		depthSum += d.depthSum
		depthMax = max(depthMax, d.depthMax)
	}
	m["sim.events"] = float64(events)
	m["sim.queue_depth_mean"] = ratio(depthSum, float64(samples))
	m["sim.queue_depth_max"] = float64(depthMax)
	m["sim.cancel_frac"] = ratio(float64(cancelled), float64(fired+cancelled))

	m["topo.build_s"] = t.spanSeconds("topo.MinFatTree")
	m["topo.route_ns"] = ratio(c["topo.route_ns_total"], c["topo.routes"])

	m["netsim.packets_per_op"] = ratio(c["netsim.sent"], ops)
	m["netsim.drop_frac"] = ratio(c["netsim.dropped"], c["netsim.sent"])
	m["fault.drop_frac"] = ratio(c["fault.dropped"], c["fault.matched"])

	m["myrinet.build_share"] = ratio(t.spanSeconds("myrinet.NewCluster"), setup.Seconds())
	m["myrinet.resent_frac"] = ratio(c["myrinet.coll_resent"], c["myrinet.coll_sent"])
	m["myrinet.nacks_per_op"] = ratio(c["myrinet.nacks"], ops)
	m["elan.build_share"] = ratio(t.spanSeconds("elan.NewCluster"), setup.Seconds())
	m["elan.rdmas_per_op"] = ratio(c["elan.rdmas"], ops)

	m["comm.install_share"] = ratio(t.spanSeconds("comm.NewGroup"), setup.Seconds())
	m["comm.queued_install_frac"] = ratio(c["comm.queued"], c["comm.installs"])
	m["comm.queue_wait_p95_us"] = c["comm.queue_wait_p95_us"]
	m["comm.reconfig_fail_frac"] = ratio(c["comm.reconfigs_failed"], c["comm.reconfigs"]+c["comm.reconfigs_failed"])

	// Simulated latency decomposition: queue wait, wire and NIC time as
	// shares of their sum, over all scopes (NIC share over Myrinet ones).
	var queue, wire, nic, myQueue, myWire, myNIC float64
	for i, sc := range t.scopes {
		for _, d := range sc.Decomp() {
			queue += d.QueueUS
			wire += d.WireUS
			nic += d.NICUS
			if t.myrinet[i] {
				myQueue += d.QueueUS
				myWire += d.WireUS
				myNIC += d.NICUS
			}
		}
	}
	m["comm.queue_share"] = ratio(queue, queue+wire+nic)
	m["netsim.wire_share"] = ratio(wire, queue+wire+nic)
	m["myrinet.nic_share"] = ratio(myNIC, myQueue+myWire+myNIC)

	m["shard.windows"] = c["shard.windows"]
	m["shard.events_per_window"] = ratio(float64(events), c["shard.windows"])
	m["shard.run_frac"] = ratio(c["shard.run_s"], c["shard.call_s"])
	return m
}

// writeSpans prints the rep's spans with their self time (duration minus
// the part covered by child spans), indented under their parents.
func (t *tracing) writeSpans(w io.Writer) {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	type agg struct {
		n          int
		total, own time.Duration
	}
	byName := map[string]*agg{}
	var names []string
	for i, s := range t.spans {
		a := byName[s.name]
		if a == nil {
			a = &agg{}
			byName[s.name] = a
			names = append(names, s.name)
		}
		a.n++
		a.total += s.end - s.start
		a.own += s.end - s.start - child[i]
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-36s %6s %12s %12s\n", "span", "count", "total", "self")
	for _, n := range names {
		a := byName[n]
		fmt.Fprintf(w, "%-36s %6d %12s %12s\n", n, a.n, a.total.Round(time.Microsecond), a.own.Round(time.Microsecond))
	}
}
