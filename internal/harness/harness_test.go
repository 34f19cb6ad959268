package harness

import (
	"slices"
	"strconv"
	"strings"
	"testing"

	"nicbarrier/internal/sim"
)

func tinyCfg() Config {
	return Config{Warmup: 2, Iters: 10, Seed: 1, Permute: true, Parallel: true}
}

func TestSweepOrderAndParallel(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		cfg := tinyCfg()
		cfg.Parallel = parallel
		s := sweep(cfg, "sq", []int{2, 4, 8, 16}, func(n int) float64 { return float64(n * n) })
		want := []Point{{2, 4}, {4, 16}, {8, 64}, {16, 256}}
		if len(s.Points) != len(want) {
			t.Fatalf("parallel=%v: %d points", parallel, len(s.Points))
		}
		for i, p := range s.Points {
			if p != want[i] {
				t.Fatalf("parallel=%v: point %d = %+v, want %+v", parallel, i, p, want[i])
			}
		}
	}
}

func TestPermutedIDs(t *testing.T) {
	cfg := tinyCfg()
	ids := permutedIDs(cfg, 16, 8, 0)
	if len(ids) != 8 {
		t.Fatalf("got %d ids", len(ids))
	}
	seen := map[int]bool{}
	for _, id := range ids {
		if id < 0 || id >= 16 || seen[id] {
			t.Fatalf("bad id set %v", ids)
		}
		seen[id] = true
	}
	// Deterministic for same seed, different for different seeds.
	again := permutedIDs(cfg, 16, 8, 0)
	for i := range ids {
		if ids[i] != again[i] {
			t.Fatal("permutation not reproducible")
		}
	}
	cfg2 := cfg
	cfg2.Seed = 99
	other := permutedIDs(cfg2, 16, 8, 0)
	same := true
	for i := range ids {
		if ids[i] != other[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds gave identical permutation")
	}
	// Without permutation: identity prefix.
	cfg.Permute = false
	for i, id := range permutedIDs(cfg, 16, 4, 0) {
		if id != i {
			t.Fatal("non-permuted ids not identity")
		}
	}
}

func TestItersForScaling(t *testing.T) {
	cfg := PaperFidelity()
	w, it := cfg.itersFor(8)
	if w != 100 || it != 10000 {
		t.Fatalf("small-n iters scaled: %d %d", w, it)
	}
	w, it = cfg.itersFor(1024)
	if w > 100 || it >= 10000 || it < 8 {
		t.Fatalf("1024-node iters unscaled: %d %d", w, it)
	}
}

func TestFigureTableAndTSV(t *testing.T) {
	f := Figure{
		ID: "figX", Title: "test", XLabel: "N", YLabel: "lat",
		Series: []Series{
			{Name: "a", Points: []Point{{2, 1.5}, {4, 2.5}}},
			{Name: "b", Points: []Point{{2, 3.0}}},
		},
		Notes: []string{"hello"},
	}
	table := f.table()
	for _, want := range []string{"figX", "a", "b", "1.50", "2.50", "3.00", "hello", "-"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
	if !strings.Contains(table, "lat vs N (us)\n") {
		t.Errorf("single-unit table header does not name us:\n%s", table)
	}
	// A series with its own unit turns the header's unit into a unit row.
	mixed := f
	mixed.Series = []Series{f.Series[0], {Name: "c", Unit: "kops/s", Points: []Point{{2, 9}}}}
	mt := strings.Split(mixed.table(), "\n")
	if mt[1] != "lat vs N" || strings.Fields(mt[3])[0] != "unit" ||
		!slices.Equal(strings.Fields(mt[3])[1:], []string{"us", "kops/s"}) {
		t.Errorf("mixed-unit table header:\n%s", mixed.table())
	}
	tsv := f.tsv()
	lines := strings.Split(strings.TrimSpace(tsv), "\n")
	if len(lines) != 3 {
		t.Fatalf("tsv lines: %v", lines)
	}
	if lines[0] != "N\ta\tb" {
		t.Fatalf("tsv header %q", lines[0])
	}
	if !strings.HasPrefix(lines[2], "4\t2.500") {
		t.Fatalf("tsv row %q", lines[2])
	}
	// A series with no point at a given N leaves the TSV cell empty
	// (adjacent tabs), so plotting tools see a gap, not a zero.
	if raw := strings.Split(tsv, "\n"); raw[2] != "4\t2.500\t" {
		t.Fatalf("missing point not an empty cell: %q", raw[2])
	}
}

// Table must align rows across series with disjoint N sets: the union
// of Ns appears once each, sorted, with "-" where a series has no data.
func TestFigureTableDisjointSeries(t *testing.T) {
	f := Figure{
		ID: "figY", Title: "disjoint", XLabel: "N", YLabel: "lat",
		Series: []Series{
			{Name: "only-evens", Points: []Point{{4, 1}, {2, 2}}},
			{Name: "only-eights", Points: []Point{{8, 3}}},
		},
	}
	lines := strings.Split(strings.TrimSpace(f.table()), "\n")
	// title line + axis line + column line + 3 data rows
	if len(lines) != 6 {
		t.Fatalf("table lines: %v", lines)
	}
	for i, wantN := range []string{"2", "4", "8"} {
		row := strings.Fields(lines[3+i])
		if row[0] != wantN {
			t.Fatalf("row %d starts with %q, want N=%s (sorted union)", i, row[0], wantN)
		}
	}
	// N=8 exists only in the second series.
	if row := strings.Fields(lines[5]); row[1] != "-" || row[2] != "3.00" {
		t.Fatalf("row 8 = %v", row)
	}
	tsvLines := strings.Split(strings.TrimSpace(f.tsv()), "\n")
	if tsvLines[3] != "8\t\t3.000" {
		t.Fatalf("tsv row 8 = %q", tsvLines[3])
	}
}

// An empty figure still renders its header without panicking.
func TestFigureTableEmpty(t *testing.T) {
	f := Figure{ID: "figZ", Title: "empty", XLabel: "N", YLabel: "lat", Notes: []string{"n"}}
	out := f.table()
	if !strings.Contains(out, "figZ") || !strings.Contains(out, "note: n") {
		t.Fatalf("empty table rendering:\n%s", out)
	}
	if got := f.tsv(); got != "N\n" {
		t.Fatalf("empty tsv %q", got)
	}
}

func TestLatencyStats(t *testing.T) {
	doneAt := []sim.Time{1000, 2000, 3000, 4500, 5500}
	st := LatencyStats(doneAt, 2) // latencies: 1.0, 1.5, 1.0 us
	if st.Iterations != 3 {
		t.Fatalf("iterations %d", st.Iterations)
	}
	if st.MinUS != 1.0 || st.MaxUS != 1.5 {
		t.Fatalf("min/max %v %v", st.MinUS, st.MaxUS)
	}
	if st.MeanUS < 1.16 || st.MeanUS > 1.17 {
		t.Fatalf("mean %v", st.MeanUS)
	}
	if st.StdUS <= 0 {
		t.Fatalf("std %v", st.StdUS)
	}
	defer func() {
		if recover() == nil {
			t.Error("warmup >= len did not panic")
		}
	}()
	LatencyStats(doneAt, 5)
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := Run("nope", tinyCfg()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	// Membership and order of Experiments() are asserted in
	// TestRegistryHasAllExperiments.
}

// Every experiment must run end to end under a tiny config and mention
// its series in the output.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep in -short mode")
	}
	cfg := tinyCfg()
	wants := map[string][]string{
		"fig5":           {"NIC-DS", "Host-PE"},
		"fig6":           {"NIC-DS", "Host-PE"},
		"fig7":           {"NIC-Barrier-DS", "Elan-HW-Barrier"},
		"fig8a":          {"Model", "Measured", "Paper-Model", "fitted"},
		"fig8b":          {"Model", "Measured", "Paper-Model", "fitted"},
		"summary":        {"Quadrics NIC-based barrier", "paper", "measured"},
		"ablation":       {"XP-Collective", "9.1-Host"},
		"packets":        {"Collective", "Direct(ACKed)"},
		"skew":           {"NIC-Barrier-DS", "Elan-HW-Barrier"},
		"faults":         {"Myrinet-DS", "Myrinet-PE", "Quadrics-DS"},
		"faults-burst":   {"Myrinet-DS", "Quadrics-DS"},
		"faults-jitter":  {"Myrinet-DS", "Quadrics-DS"},
		"faults-impair":  {"Every-50th", "Partition-heal", "Crash-recover", "Chaos-p99-worst"},
		"tenant-shapes":  {"Open-loop-kops", "Overlap-fairness", "Quadrics-kops", "unit"},
		"churn-policies": {"Reconfig-post-swap-p95", "Spread-kops", "Think-wait-p95", "Live-kops"},
	}
	for _, id := range Experiments() {
		out, err := Run(id, cfg)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for _, w := range wants[id] {
			if !strings.Contains(out, w) {
				t.Errorf("%s output missing %q:\n%s", id, w, out)
			}
		}
	}
}

// The headline comparisons must stay within honest bands of the paper's
// values: 15% for latencies, 20% for model extrapolations.
func TestSummaryWithinBands(t *testing.T) {
	if testing.Short() {
		t.Skip("summary sweep in -short mode")
	}
	table := summary(tinyCfg())
	for _, r := range table.Rows {
		band := 0.15
		if strings.HasPrefix(r.Metric, "Model:") {
			band = 0.20
		}
		if d := r.delta(); d < -band || d > band {
			t.Errorf("%s: measured %.2f vs paper %.2f (%+.1f%%) outside %.0f%% band",
				r.Metric, r.Measured, r.Paper, d*100, band*100)
		}
	}
}

// The packet experiment must show the halving: direct uses 2x the wire
// packets of collective at every size. Its table is headed in packets,
// not in the latency figures' microseconds.
func TestPacketHalving(t *testing.T) {
	fig := packets(tinyCfg())
	if header := strings.Split(fig.table(), "\n")[1]; header != "Packets/barrier vs Number of Nodes (pkts)" {
		t.Errorf("packets header = %q", header)
	}
	coll, direct := fig.Series[0], fig.Series[1]
	for i := range coll.Points {
		c, d := coll.Points[i].LatencyUS, direct.Points[i].LatencyUS
		if d != 2*c {
			t.Errorf("n=%d: direct=%v collective=%v, want exactly 2x", coll.Points[i].N, d, c)
		}
	}
}

// Fig. 8 fits must track their measured curves closely.
func TestFig8FitQuality(t *testing.T) {
	if testing.Short() {
		t.Skip("fig8 sweep in -short mode")
	}
	for _, fig := range []Figure{fig8a(tinyCfg()), fig8b(tinyCfg())} {
		var note string
		for _, n := range fig.Notes {
			if strings.HasPrefix(n, "fit max relative error") {
				note = n
			}
		}
		if note == "" {
			t.Fatalf("%s: no fit-quality note", fig.ID)
		}
		i := strings.LastIndexByte(note, ':')
		pct, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(note[i+1:]), "%"), 64)
		if err != nil {
			t.Fatalf("%s: unparseable note %q: %v", fig.ID, note, err)
		}
		if pct > 12 {
			t.Errorf("%s: fit error %.1f%% too large", fig.ID, pct)
		}
	}
}
