package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var (
	namePattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitPattern = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// heldOutSeed is a seed no sizing or tuning of the workloads used.
const heldOutSeed = "20261016"

func TestMetricNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !namePattern.MatchString(d.name) {
			t.Errorf("metric name %q does not match %v", d.name, namePattern)
		}
		if !unitPattern.MatchString(d.unit) {
			t.Errorf("metric %s: unit %q does not match %v", d.name, d.unit, unitPattern)
		}
		if seen[d.name] {
			t.Errorf("metric %s declared twice", d.name)
		}
		seen[d.name] = true
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("metric %s: better = %q", d.name, d.better)
		}
		if d.clock != "host" && d.clock != "sim" {
			t.Errorf("metric %s: clock = %q", d.name, d.clock)
		}
	}
	for _, d := range endToEnd {
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
	}
	for _, l := range layers {
		if !seen[l+".cpu_share"] {
			t.Errorf("layer %s has no cpu_share metric", l)
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps the repository's BENCHMARK.json in
// step with the metrics and workloads this program emits.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, code has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := doc.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, code %q %q", i, got, w.name, w.why)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d/%d metrics, code %d/%d",
			len(doc.EndToEnd), len(doc.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		if got := doc.EndToEnd[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end_to_end %d: BENCHMARK.json %+v, code %+v", i, got, d)
		}
	}
	for i, d := range perLayer {
		if got := doc.PerLayer[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per_layer %d: BENCHMARK.json %+v, code %+v", i, got, d)
		}
	}
}

// runToy runs one toy-size benchmark invocation and decodes its result.
func runToy(t *testing.T, workload, seed, trace, seconds string) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{"-workload", workload, "-seed", seed, "-seconds", seconds, "-trace", trace, "-toy"}, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result (%v); stderr:\n%s", workload, err, stderr.String())
	}
	if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s seed %s trace %s: exit %d, result %+v; stderr:\n%s",
			workload, seed, trace, code, res, stderr.String())
	}
	return res
}

func metricNames(defs []metricDef) []string {
	var names []string
	for _, d := range defs {
		names = append(names, d.name)
	}
	sort.Strings(names)
	return names
}

func resultNames(res result) []string {
	var names []string
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// TestToyRuns smoke-runs every workload, untraced and traced, on the
// default seed and a held-out one: every output check must pass and each
// run must emit exactly its declared metric set.
func TestToyRuns(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, seed := range []string{"1", heldOutSeed} {
				res := runToy(t, w.name, seed, "0", "0.05")
				if got, want := resultNames(res), metricNames(endToEnd); !equalStrings(got, want) {
					t.Errorf("seed %s: end-to-end metrics %v, want %v", seed, got, want)
				}
				if v := res.Metrics["ok_ops_frac"].Value; v != 1 {
					t.Errorf("seed %s: ok_ops_frac = %v", seed, v)
				}
			}
			res := runToy(t, w.name, "1", "1", "0.3")
			if got, want := resultNames(res), metricNames(perLayer); !equalStrings(got, want) {
				t.Errorf("per-layer metrics %v, want %v", got, want)
			}
		})
	}
}

func equalStrings(a, b []string) bool {
	return strings.Join(a, "\n") == strings.Join(b, "\n")
}

// TestSimMetricsRepeat checks that the deterministic metrics of one seed
// read the same in two separate runs.
func TestSimMetricsRepeat(t *testing.T) {
	a := runToy(t, "churn-lossy", "5", "0", "0.05")
	b := runToy(t, "churn-lossy", "5", "0", "0.05")
	for _, d := range endToEnd {
		if d.clock == "sim" && a.Metrics[d.name] != b.Metrics[d.name] {
			t.Errorf("%s: %v then %v", d.name, a.Metrics[d.name], b.Metrics[d.name])
		}
	}
}

func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-workload", "nope"},
		{"-workload", "tenant-mix", "-trace", "2"},
		{"-workload", "tenant-mix", "-seconds", "0"},
	} {
		var out, errs bytes.Buffer
		if code := run(args, &out, &errs); code != 2 || out.Len() != 0 {
			t.Errorf("run(%q) = %d with stdout %q, want 2 and no result", args, code, out.String())
		}
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"nicbarrier/internal/sim.(*Engine).siftDown", "nicbarrier/internal/sim.(*Engine).Step"}, "sim"},
		{[]string{"runtime.mallocgc", "nicbarrier/internal/netsim.(*Network).Send", "main.main"}, "netsim"},
		{[]string{"sort.Sort", "nicbarrier/internal/comm.RunWorkload.func1"}, "comm"},
		{[]string{"nicbarrier/internal/barrier.Schedule", "nicbarrier/internal/core.NewGroup"}, "other"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "go"},
		{[]string{"main.median", "main.main", "runtime.main"}, "other"},
		{nil, "other"},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%q) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestDisseminationPairs(t *testing.T) {
	got := disseminationPairs([]int{7, 8, 9})
	want := [][2]int{{7, 8}, {8, 9}, {9, 7}, {7, 9}, {8, 7}, {9, 8}}
	if len(got) != len(want) {
		t.Fatalf("pairs %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pairs %v, want %v", got, want)
		}
	}
}

func TestCheckAllreduceMax(t *testing.T) {
	rows := [][]int64{{51, 51, 51}, {58, 58, 58}} // size 3: 2*31 + iter*7 - 11
	if err := checkAllreduceMax(rows, 3); err != nil {
		t.Fatal(err)
	}
	rows[1][2] = 57
	if err := checkAllreduceMax(rows, 3); err == nil {
		t.Fatal("a wrong allreduce result passed the check")
	}
}
