package obs

import (
	"testing"

	"nicbarrier/internal/sim"
)

func TestMetronomePublishesOnVirtualTime(t *testing.T) {
	tr := NewTracer()
	tr.SetMetronome(10 * sim.Microsecond)
	sc := tr.NewScope("run")
	if sc.metroEvery <= 0 {
		t.Fatal("scope did not inherit the tracer metronome")
	}
	if sc.Live() != nil {
		t.Fatal("published before any event")
	}

	var lastEpoch uint64
	var pubs int
	for at := sim.Time(0); at < sim.Time(100*sim.Microsecond); at = at.Add(sim.Microsecond) {
		sc.PktInject(at, 0, 1, 0, "data")
		sc.EventFired(at)
		if ls := sc.Live(); ls != nil && ls.Epoch != lastEpoch {
			if ls.Epoch <= lastEpoch {
				t.Fatalf("epoch regressed: %d after %d", ls.Epoch, lastEpoch)
			}
			lastEpoch = ls.Epoch
			pubs++
		}
	}
	// 100us of events at a 10us metronome: one tick at t=0, then one
	// per crossed interval.
	if pubs < 9 || pubs > 11 {
		t.Fatalf("published %d times over 100us at 10us interval", pubs)
	}
	ls := sc.Live()
	if ls == nil || ls.EventsFired == 0 {
		t.Fatalf("live snapshot missing engine counters: %+v", ls)
	}
	if len(ls.Groups) != 1 || ls.Groups[0].Sent == 0 {
		t.Fatalf("live snapshot missing group metrics: %+v", ls)
	}
}

func TestPublishStampsEpochAndTime(t *testing.T) {
	tr := NewTracer()
	sc := tr.NewScope("run")
	e1 := sc.Publish(sim.Time(5 * sim.Microsecond))
	e2 := sc.Publish(sim.Time(7 * sim.Microsecond))
	if e1 != 1 || e2 != 2 {
		t.Fatalf("epochs = %d, %d; want 1, 2", e1, e2)
	}
	ls := sc.Live()
	if ls.Epoch != 2 || ls.AtUS != 7 {
		t.Fatalf("live stamp: epoch=%d atUS=%v", ls.Epoch, ls.AtUS)
	}
}

func TestLiveSnapshotOmitsUnpublishedScopes(t *testing.T) {
	tr := NewTracer()
	a := tr.NewScope("a")
	tr.NewScope("b") // never publishes
	a.Publish(0)
	snap := tr.LiveSnapshot()
	if len(snap.Scopes) != 1 || snap.Scopes[0].Name != "a" {
		t.Fatalf("live snapshot scopes: %+v", snap.Scopes)
	}
}

func TestFinalPublishOnlyWhenArmed(t *testing.T) {
	tr := NewTracer()
	off := tr.NewScope("off")
	off.PublishFinal(10)
	if off.Live() != nil {
		t.Fatal("disarmed scope published a final snapshot")
	}
	on := tr.NewScope("on")
	on.SetMetronome(sim.Millisecond)
	on.PublishFinal(10)
	if on.Live() == nil {
		t.Fatal("armed scope did not publish a final snapshot")
	}
}

func TestNegativeMetronomePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on negative interval")
		}
	}()
	NewTracer().NewScope("x").SetMetronome(-1)
}

// TestDisarmedMetronomeZeroAlloc pins the disabled-path contract: an
// engine observed by a scope with no metronome pays one predicate per
// event and allocates nothing.
func TestDisarmedMetronomeZeroAlloc(t *testing.T) {
	tr := NewTracer()
	sc := tr.NewScope("warm")
	sc.EventFired(0)
	var at sim.Time
	allocs := testing.AllocsPerRun(1000, func() {
		at++
		sc.EventFired(at)
	})
	if allocs != 0 {
		t.Fatalf("disarmed metronome path allocates %.1f/op, want 0", allocs)
	}
}

// TestArmedMetronomeZeroAllocBetweenTicks pins the armed steady state:
// between ticks the metronome costs a comparison, not an allocation.
func TestArmedMetronomeZeroAllocBetweenTicks(t *testing.T) {
	tr := NewTracer()
	sc := tr.NewScope("warm")
	sc.SetMetronome(sim.Second) // far beyond the test's virtual time
	sc.EventFired(0)            // first tick publishes; the rest stay between ticks
	var at sim.Time
	allocs := testing.AllocsPerRun(1000, func() {
		at++
		sc.EventFired(at)
	})
	if allocs != 0 {
		t.Fatalf("armed metronome between ticks allocates %.1f/op, want 0", allocs)
	}
}

func TestMergeHistSnapshotsExact(t *testing.T) {
	var a, b, both Histogram
	for i := 1; i <= 500; i++ {
		d := sim.Duration(i*i) * sim.Microsecond / 7
		a.Observe(d)
		both.Observe(d)
	}
	for i := 1; i <= 300; i++ {
		d := sim.Duration(i) * sim.Millisecond
		b.Observe(d)
		both.Observe(d)
	}
	got := mergeHistSnapshots(SnapshotHistogram(&a), SnapshotHistogram(&b))
	want := SnapshotHistogram(&both)
	if got.Count != want.Count || got.SumNS != want.SumNS || got.MaxNS != want.MaxNS {
		t.Fatalf("merge exact fields: got %+v want %+v", got, want)
	}
	if got.P50US != want.P50US || got.P95US != want.P95US || got.P99US != want.P99US ||
		got.MaxUS != want.MaxUS || got.MeanUS != want.MeanUS {
		t.Fatalf("merge quantiles drifted: got %+v want %+v", got, want)
	}
	if len(got.Bins) != len(want.Bins) {
		t.Fatalf("merge bins: got %d want %d", len(got.Bins), len(want.Bins))
	}
	for i := range got.Bins {
		if got.Bins[i] != want.Bins[i] {
			t.Fatalf("bin %d: got %+v want %+v", i, got.Bins[i], want.Bins[i])
		}
	}
}

func TestMergeTenantsPoolsAcrossScopes(t *testing.T) {
	tr := NewTracer()
	a := tr.NewScope("shard0")
	b := tr.NewScope("shard1")
	// Tenant 3 lands as group 0 on shard0 and group 1 on shard1.
	a.BindGroupTenant(0, 3)
	a.OpSpan(0, "barrier", 0, 0, sim.Time(4*sim.Microsecond))
	a.PktDrop(0, 0, 1, 0, "data", DropMidRoute)
	a.Lifecycle(0, 0, KindRetry, 1)
	b.BindGroupTenant(1, 3)
	b.OpSpan(1, "barrier", 0, 0, sim.Time(8*sim.Microsecond))
	b.Lifecycle(0, 1, KindEvict, 2)
	// Tenant 1 lives only on shard1; an unbound group rides along.
	b.BindGroupTenant(0, 1)
	b.OpSpan(0, "bcast", 0, 0, sim.Time(2*sim.Microsecond))
	a.OpSpan(5, "barrier", 0, 0, sim.Time(1*sim.Microsecond)) // unbound

	rows := Snapshot{Scopes: []ScopeSnapshot{a.Snapshot(), b.Snapshot()}}.MergeTenants()
	if len(rows) != 2 {
		t.Fatalf("merged rows: %+v", rows)
	}
	if rows[0].Tenant != 1 || rows[0].Kind != "bcast" || rows[0].Ops != 1 {
		t.Fatalf("tenant 1 row: %+v", rows[0])
	}
	g := rows[1]
	if g.Tenant != 3 || g.Ops != 2 || g.Dropped != 1 || g.Drops.MidRoute != 1 ||
		g.Retries != 1 || g.Evictions != 1 {
		t.Fatalf("tenant 3 row: %+v", g)
	}
	if g.Latency.Count != 2 || g.Latency.MaxUS != 8 {
		t.Fatalf("tenant 3 pooled latency: %+v", g.Latency)
	}
}

func TestLifecycleOnlyGroupSurvivesSnapshot(t *testing.T) {
	tr := NewTracer()
	sc := tr.NewScope("x")
	sc.Lifecycle(0, 4, KindEvict, 9)
	ss := sc.Snapshot()
	if len(ss.Groups) != 1 || ss.Groups[0].Evictions != 1 {
		t.Fatalf("lifecycle-only group dropped from snapshot: %+v", ss.Groups)
	}
}
