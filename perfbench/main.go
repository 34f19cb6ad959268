// Command perfbench is the repository benchmark. It runs one workload
// for a time budget from one process and prints every metric by name
// with its unit, ending with one JSON line:
//
//	go run . -workload tenant-mix -seed 1 -seconds 20 -trace 0
//
// -trace 0 reports the end-to-end metrics of untraced repetitions;
// -trace 1 alternates CPU-profiled untraced repetitions with traced ones
// and reports the per-layer metrics. Every repetition checks its outputs;
// the process exits 1 when a check fails. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metricDef is one reported metric. clock names the time base behind
// it: "host" for the benchmark machine, "sim" for simulated time and
// the simulation's own counts.
type metricDef struct {
	name, unit, better, clock string
	bound                     float64 // end-to-end only: allowed regression, share of the median
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", "host", 0.25},
	{"wall_s", "s", "lower", "host", 0.25},
	{"ns_per_event", "ns", "lower", "host", 0.25},
	{"allocs_per_event", "count", "lower", "host", 0.1},
	{"bytes_per_endpoint", "B", "lower", "host", 0.15},
	{"sim_p50_us", "sim_us", "lower", "sim", 0.25},
	{"sim_p99_us", "sim_us", "lower", "sim", 0.25},
	{"sim_kops_per_s", "kops/sim_s", "higher", "sim", 0.2},
	{"ok_ops_frac", "frac", "higher", "sim", 0.01},
	{"paper_err_pct", "%", "lower", "sim", 0.1},
	{"model_err_pct", "%", "lower", "sim", 0.1},
}

var perLayer = []metricDef{
	{"sim.events", "count", "lower", "sim", 0},
	{"sim.queue_depth_mean", "count", "lower", "sim", 0},
	{"sim.queue_depth_max", "count", "lower", "sim", 0},
	{"sim.cancel_frac", "frac", "lower", "sim", 0},
	{"sim.cpu_share", "frac", "lower", "host", 0},
	{"topo.build_s", "s", "lower", "host", 0},
	{"topo.route_ns", "ns", "lower", "host", 0},
	{"topo.cpu_share", "frac", "lower", "host", 0},
	{"netsim.packets_per_op", "count", "lower", "sim", 0},
	{"netsim.drop_frac", "frac", "lower", "sim", 0},
	{"netsim.wire_share", "frac", "lower", "sim", 0},
	{"netsim.cpu_share", "frac", "lower", "host", 0},
	{"fault.drop_frac", "frac", "lower", "sim", 0},
	{"fault.cpu_share", "frac", "lower", "host", 0},
	{"myrinet.build_share", "frac", "lower", "host", 0},
	{"myrinet.resent_frac", "frac", "lower", "sim", 0},
	{"myrinet.nacks_per_op", "count", "lower", "sim", 0},
	{"myrinet.nic_share", "frac", "lower", "sim", 0},
	{"myrinet.cpu_share", "frac", "lower", "host", 0},
	{"elan.build_share", "frac", "lower", "host", 0},
	{"elan.rdmas_per_op", "count", "lower", "sim", 0},
	{"elan.cpu_share", "frac", "lower", "host", 0},
	{"core.cpu_share", "frac", "lower", "host", 0},
	{"comm.install_share", "frac", "lower", "host", 0},
	{"comm.queued_install_frac", "frac", "lower", "sim", 0},
	{"comm.queue_wait_p95_us", "sim_us", "lower", "sim", 0},
	{"comm.reconfig_fail_frac", "frac", "lower", "sim", 0},
	{"comm.queue_share", "frac", "lower", "sim", 0},
	{"comm.cpu_share", "frac", "lower", "host", 0},
	{"shard.windows", "count", "lower", "sim", 0},
	{"shard.events_per_window", "count", "higher", "sim", 0},
	{"shard.run_frac", "frac", "higher", "host", 0},
	{"shard.cpu_share", "frac", "lower", "host", 0},
	{"go.gc_cpu_frac", "frac", "lower", "host", 0},
	{"go.gc_cycles", "count", "lower", "host", 0},
	{"go.cpu_share", "frac", "lower", "host", 0},
	{"obs.overhead_pct", "%", "lower", "host", 0},
	{"obs.cpu_share", "frac", "lower", "host", 0},
	{"other.cpu_share", "frac", "lower", "host", 0},
}

// shareTolerance bounds how far the folded CPU shares may sum from 1.
const shareTolerance = 1e-9

// maxReps caps repetitions so a tiny workload cannot spin forever.
const maxReps = 1000

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Uint64("seed", 1, "seed every workload input derives from")
	seconds := fs.Float64("seconds", 10, "measuring budget in host seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	toy := fs.Bool("toy", false, "smoke-test sizes (seconds, not minutes)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need -workload (one of %s), -trace 0|1 and -seconds > 0\n", strings.Join(names, ", "))
		return 2
	}
	budget := time.Duration(*seconds * float64(time.Second))
	res, err := bench(w, params{seed: *seed, toy: *toy}, budget, *trace == 1, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Fprintf(stdout, "%-26s %-5s %18.6g %s\n", d.name, d.clock, res.Metrics[d.name].Value, d.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// tracedRep is one traced repetition with its collected trace.
type tracedRep struct {
	out *repOut
	tr  *tracing
}

// bench measures w for budget and returns the metrics of the requested
// kind. Repetitions start while the previous one would still finish
// inside the budget; at least one of each kind always runs.
func bench(w workload, p params, budget time.Duration, traced bool, log io.Writer) (result, error) {
	fid, err := probeFidelity(p)
	if err != nil {
		return result{}, err
	}
	var (
		reps    []*repOut
		trReps  []tracedRep
		cpu     = map[string]int64{}
		gcDelta runtimeCPU
		last    time.Duration
	)
	start := time.Now()
	for len(reps) == 0 || (time.Since(start)+last <= budget && len(reps) < maxReps) {
		t0 := time.Now()
		var out *repOut
		if traced {
			var prof bytes.Buffer
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return result{}, err
			}
			c0 := readRuntimeCPU()
			out = runRep(w, p, nil)
			pprof.StopCPUProfile()
			gcDelta = gcDelta.plus(readRuntimeCPU().minus(c0))
			if err := foldProfile(prof.Bytes(), cpu); err != nil {
				return result{}, err
			}
		} else {
			out = runRep(w, p, nil)
		}
		reps = append(reps, out)
		fmt.Fprintf(log, "rep %d: setup %s, run %s, %d events\n",
			len(reps)-1, out.setup.Round(time.Microsecond), out.wall.Round(time.Microsecond), out.events)
		if traced {
			tr := newTracing()
			trReps = append(trReps, tracedRep{runRep(w, p, tr), tr})
		}
		last = time.Since(t0)
	}

	res := result{Correct: true, Metrics: map[string]metricValue{}}
	all := append([]*repOut(nil), reps...)
	for _, r := range trReps {
		all = append(all, r.out)
	}
	for i, r := range all {
		res.Attempted += r.ops
		res.Failed += r.failed
		for _, e := range r.errs {
			fmt.Fprintf(log, "check failed: %v\n", e)
			res.Correct = false
		}
		if r.digest != all[0].digest {
			// Simulated outputs must repeat exactly, traced or not.
			fmt.Fprintf(log, "check failed: repetition %d simulated outputs differ from repetition 0\n", i)
			res.Correct = false
			res.Failed += r.ops - r.failed
		}
	}
	if res.Attempted == 0 {
		return result{}, fmt.Errorf("no operations attempted")
	}
	fmt.Fprintf(log, "%s: seed %d, %d untraced + %d traced repetitions in %s, %d latency samples per repetition\n",
		w.name, p.seed, len(reps), len(trReps), time.Since(start).Round(time.Millisecond), len(reps[0].lat))

	set := func(defs []metricDef, vals map[string]float64) {
		for _, d := range defs {
			v, ok := vals[d.name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				fmt.Fprintf(log, "check failed: metric %s is %v\n", d.name, v)
				res.Correct = false
				v = 0
			}
			res.Metrics[d.name] = metricValue{v, d.unit}
		}
	}
	if !traced {
		set(endToEnd, endToEndValues(reps, res, fid))
		return res, nil
	}

	vals, err := layerValues(trReps, cpu, gcDelta, len(reps), median(hostWalls(reps)))
	if err != nil {
		fmt.Fprintf(log, "check failed: %v\n", err)
		res.Correct = false
	}
	trReps[0].tr.writeSpans(log)
	set(perLayer, vals)
	return res, nil
}

func hostWalls(reps []*repOut) []float64 {
	var xs []float64
	for _, r := range reps {
		xs = append(xs, r.wall.Seconds())
	}
	return xs
}

// endToEndValues derives the end-to-end metrics: host figures as
// medians over repetitions, simulated ones from the first repetition
// (every repetition's simulated outputs were checked identical).
func endToEndValues(reps []*repOut, res result, fid fidelity) map[string]float64 {
	var setup, nsPerEv, allocsPerEv, bytesPerEP []float64
	for _, r := range reps {
		setup = append(setup, r.setup.Seconds())
		nsPerEv = append(nsPerEv, ratio(float64(r.wall.Nanoseconds()), float64(r.events)))
		allocsPerEv = append(allocsPerEv, ratio(float64(r.mallocs), float64(r.events)))
		bytesPerEP = append(bytesPerEP, ratio(float64(r.liveBytes), float64(r.endpoints)))
	}
	lat := append([]float64(nil), reps[0].lat...)
	sort.Float64s(lat)
	return map[string]float64{
		"setup_s":            median(setup),
		"wall_s":             median(hostWalls(reps)),
		"ns_per_event":       median(nsPerEv),
		"allocs_per_event":   median(allocsPerEv),
		"bytes_per_endpoint": median(bytesPerEP),
		"sim_p50_us":         nearestRank(lat, 0.50),
		"sim_p99_us":         nearestRank(lat, 0.99),
		"sim_kops_per_s":     ratio(float64(reps[0].simOps), reps[0].simSpan) / 1e3,
		"ok_ops_frac":        1 - float64(res.Failed)/float64(res.Attempted),
		"paper_err_pct":      fid.paperErrPct,
		"model_err_pct":      fid.modelErrPct,
	}
}

// layerValues derives the per-layer metrics: counters as medians over
// traced repetitions, CPU shares from the profiles of the untraced ones.
func layerValues(trReps []tracedRep, cpu map[string]int64, gc runtimeCPU, profiled int, untracedWall float64) (map[string]float64, error) {
	per := map[string][]float64{}
	var tracedWall []float64
	for _, r := range trReps {
		for k, v := range r.tr.layerCounters(r.out.setup, r.out.events) {
			per[k] = append(per[k], v)
		}
		tracedWall = append(tracedWall, r.out.wall.Seconds())
	}
	vals := map[string]float64{}
	for k, xs := range per {
		vals[k] = median(xs)
	}
	var total int64
	for _, n := range cpu {
		total += n
	}
	var sum float64
	for _, l := range layers {
		share := ratio(float64(cpu[l]), float64(total))
		vals[l+".cpu_share"] = share
		sum += share
	}
	vals["go.gc_cpu_frac"] = ratio(gc.gc, gc.total)
	vals["go.gc_cycles"] = gc.cycles / float64(profiled)
	vals["obs.overhead_pct"] = 100 * (ratio(median(tracedWall), untracedWall) - 1)
	if total == 0 {
		return vals, fmt.Errorf("cpu profile holds no samples")
	}
	if math.Abs(sum-1) > shareTolerance {
		return vals, fmt.Errorf("cpu shares sum to %v, not 1 within %v", sum, shareTolerance)
	}
	return vals, nil
}

// runtimeCPU is the Go runtime's cumulative CPU accounting.
type runtimeCPU struct{ gc, total, cycles float64 }

func readRuntimeCPU() runtimeCPU {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	num := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindFloat64:
			return v.Float64()
		case metrics.KindUint64:
			return float64(v.Uint64())
		}
		return 0
	}
	return runtimeCPU{num(s[0].Value), num(s[1].Value), num(s[2].Value)}
}

func (a runtimeCPU) minus(b runtimeCPU) runtimeCPU {
	return runtimeCPU{a.gc - b.gc, a.total - b.total, a.cycles - b.cycles}
}

func (a runtimeCPU) plus(b runtimeCPU) runtimeCPU {
	return runtimeCPU{a.gc + b.gc, a.total + b.total, a.cycles + b.cycles}
}
