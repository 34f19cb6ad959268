package obs

import (
	"bytes"
	"math"
	"testing"

	"nicbarrier/internal/sim"
)

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Observe(sim.Duration(i) * sim.Microsecond)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	check := func(q, wantUS float64) {
		t.Helper()
		got := h.Quantile(q).Micros()
		if math.Abs(got-wantUS)/wantUS > 0.05 {
			t.Errorf("p%.0f = %.1fus, want ~%.1fus", q*100, got, wantUS)
		}
	}
	check(0.50, 500)
	check(0.95, 950)
	check(0.99, 990)
	if got := h.Quantile(1).Micros(); got != 1000 {
		t.Errorf("max quantile = %v, want exact 1000", got)
	}
	if got := h.Max().Micros(); got != 1000 {
		t.Errorf("max = %v", got)
	}
	if got := h.Mean().Micros(); math.Abs(got-500.5) > 1 {
		t.Errorf("mean = %v, want ~500.5", got)
	}
}

// A zero histogram reports zeros, and pools through snapshots (the path
// tenant merging takes) like any other.
func TestHistogramZeroValueAndMerge(t *testing.T) {
	var a, b Histogram
	if a.Quantile(0.5) != 0 || a.Mean() != 0 || a.Max() != 0 {
		t.Fatal("zero histogram should report zeros")
	}
	b.Observe(3 * sim.Microsecond)
	if m := mergeHistSnapshots(SnapshotHistogram(&a), SnapshotHistogram(&b)); m.Count != 1 || m.MaxUS != 3 {
		t.Fatalf("zero merged with one observation: %+v", m)
	}
	a.Observe(sim.Microsecond)
	m := mergeHistSnapshots(SnapshotHistogram(&a), SnapshotHistogram(&b))
	if m.Count != 2 {
		t.Fatalf("merged count = %d", m.Count)
	}
	if m.MaxUS != 3 {
		t.Fatalf("merged max = %vus", m.MaxUS)
	}
}

func TestHistogramBucketsCoverInt64(t *testing.T) {
	for _, v := range []int64{0, 1, 15, 16, 17, 31, 32, 1 << 20, 1 << 40, math.MaxInt64} {
		i := histBucket(v)
		if i < 0 || i >= histBuckets {
			t.Fatalf("bucket(%d) = %d outside [0,%d)", v, i, histBuckets)
		}
		// The bucket's representative must be within one sub-bucket
		// width of the value.
		rep := histValue(i)
		if v >= histSub {
			width := int64(1) << uint(63-histSubBits)
			if v < (1 << 62) {
				// width of v's octave
				msb := 0
				for x := v; x > 1; x >>= 1 {
					msb++
				}
				width = int64(1) << uint(msb-histSubBits)
			}
			if d := rep - v; d > width || d < -width {
				t.Errorf("bucket(%d) rep %d off by more than %d", v, rep, width)
			}
		}
	}
}

func TestRingWrap(t *testing.T) {
	tr := NewTracerSize(8)
	sc := tr.NewScope("test")
	for i := 0; i < 20; i++ {
		sc.PktInject(sim.Time(i), 0, 1, 0, "data")
	}
	track := sc.NodeTrack(0)
	if track.ring.total != 20 {
		t.Fatalf("total = %d", track.ring.total)
	}
	recs := track.ring.snapshot()
	if len(recs) != 8 {
		t.Fatalf("retained %d records, want 8", len(recs))
	}
	if recs[0].At != 12 || recs[7].At != 19 {
		t.Fatalf("ring order wrong: first %v last %v", recs[0].At, recs[7].At)
	}
}

func TestScopeMetricsAndDecomp(t *testing.T) {
	tr := NewTracer()
	sc := tr.NewScope("cluster")
	sc.PktInject(0, 0, 1, 2, "barrier-coll")
	sc.WireTime(2, 3*sim.Microsecond)
	sc.NICTime(2, sim.Microsecond)
	sc.OpSpan(2, "barrier", 0, 2000, 10000) // 2us queue, 8us run
	sc.PktDrop(5, 0, 1, 2, "barrier-coll", DropMidRoute)

	snap := tr.Snapshot()
	if len(snap.Scopes) != 1 || len(snap.Scopes[0].Groups) != 1 {
		t.Fatalf("snapshot shape: %+v", snap)
	}
	g := snap.Scopes[0].Groups[0]
	if g.Group != 2 || g.Kind != "barrier" || g.Ops != 1 || g.Sent != 1 || g.Dropped != 1 {
		t.Fatalf("group snapshot: %+v", g)
	}
	if g.QueueUS != 2 || g.WireUS != 3 || g.NICUS != 1 {
		t.Fatalf("attribution: %+v", g)
	}
	if g.Latency.Count != 1 || g.Latency.MaxUS != 10 {
		t.Fatalf("latency: %+v", g.Latency)
	}

	rows := DecompByKind(snap)
	if len(rows) != 1 || rows[0].Kind != "barrier" {
		t.Fatalf("decomp rows: %+v", rows)
	}
	if s := rows[0].QueueShare + rows[0].WireShare + rows[0].NICShare; math.Abs(s-1) > 1e-9 {
		t.Fatalf("shares sum to %v", s)
	}
	out := FormatDecomp(rows)
	if out == "" || !bytes.Contains([]byte(out), []byte("barrier")) {
		t.Fatalf("table: %q", out)
	}
}

func TestChromeExportValidates(t *testing.T) {
	tr := NewTracer()
	sc := tr.NewScope("cluster")
	sc.PktInject(1000, 0, 1, 1, "data")
	sc.PktHop(1200, 0, 1, 1, 3, 0)
	sc.PktDeliver(2000, 0, 1, 1, "data")
	sc.PktDrop(2500, 0, 2, 1, "data", DropInjected)
	sc.NICEvent(3000, 0, 1, KindDoorbell, 0)
	sc.NICEvent(3500, 0, 1, KindNack, 7)
	sc.EventFired(4000)
	sc.EventCancelled(4100)
	sc.OpSpan(1, "barrier", 0, 500, 4200)

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	n, err := ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("validate: %v\n%s", err, buf.String())
	}
	// 9 records (OpSpan emits 2) + 1 process_name + 4 thread_name
	// (node, nic, engine, tenant).
	if n < 14 {
		t.Fatalf("validated %d events, want >= 14", n)
	}
}

func TestValidateRejectsGarbage(t *testing.T) {
	cases := []string{
		`not json`,
		`{"other":[]}`,
		`{"traceEvents":[{"ph":"X","pid":1,"name":"x","ts":1}]}`, // X without dur
		`{"traceEvents":[{"ph":"i","pid":1,"name":"x"}]}`,        // i without ts
		`{"traceEvents":[{"pid":1,"name":"x","ts":1}]}`,          // missing ph
		`{"traceEvents":[{"ph":"i","name":"x","ts":1}]}`,         // missing pid
	}
	for _, c := range cases {
		if _, err := ValidateChromeTrace([]byte(c)); err == nil {
			t.Errorf("accepted %q", c)
		}
	}
	if n, err := ValidateChromeTrace([]byte(`{"traceEvents":[]}`)); err != nil || n != 0 {
		t.Errorf("empty trace: n=%d err=%v", n, err)
	}
}

// TestEmitZeroAllocAfterWarmup pins the enabled-tracer contract: once
// tracks exist, record emission and histogram observation allocate
// nothing.
func TestEmitZeroAllocAfterWarmup(t *testing.T) {
	tr := NewTracer()
	sc := tr.NewScope("warm")
	sc.PktInject(0, 0, 1, 1, "data")
	sc.PktDeliver(0, 0, 1, 1, "data")
	sc.NICEvent(0, 0, 1, KindDoorbell, 0)
	sc.EventFired(0)
	sc.OpSpan(1, "barrier", 0, 1, 2)
	var at sim.Time
	allocs := testing.AllocsPerRun(1000, func() {
		at++
		sc.PktInject(at, 0, 1, 1, "data")
		sc.PktHop(at, 0, 1, 1, 2, 0)
		sc.PktDeliver(at, 0, 1, 1, "data")
		sc.WireTime(1, sim.Microsecond)
		sc.NICEvent(at, 0, 1, KindDoorbell, 0)
		sc.NICTime(1, sim.Microsecond)
		sc.EventFired(at)
		sc.OpSpan(1, "barrier", at, at+1, at+2)
	})
	if allocs != 0 {
		t.Fatalf("enabled-tracer emission allocates %.1f/op, want 0", allocs)
	}
}
