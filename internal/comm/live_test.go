package comm

import (
	"fmt"
	"slices"
	"testing"

	"nicbarrier/internal/obs"
	"nicbarrier/internal/sim"
)

// published is the latest publication of tr's one scope.
func published(t *testing.T, tr *obs.Tracer) obs.ScopeSnapshot {
	t.Helper()
	snap := tr.LiveSnapshot()
	if len(snap.Scopes) != 1 {
		t.Fatalf("%d scopes published, want 1", len(snap.Scopes))
	}
	return snap.Scopes[0]
}

// tenantRows is the tenant-merged view of every scope of snap, in tenant
// order. A sharded run deals each tenant to one shard, so the scopes'
// own views concatenate: a tenant listed twice was split across shards.
func tenantRows(snap obs.Snapshot) []obs.GroupSnapshot {
	var rows []obs.GroupSnapshot
	for _, sc := range snap.Scopes {
		rows = append(rows, sc.MergeTenants()...)
	}
	slices.SortStableFunc(rows, func(a, b obs.GroupSnapshot) int { return a.Tenant - b.Tenant })
	return rows
}

// The metronome is observational only: arming it must not move a single
// virtual-time result, and the final published snapshot must carry the
// run's full metric state (live op progress, span-fed latency, tenant
// bindings).
func TestMetronomeNeutralAndPublishes(t *testing.T) {
	spec := WorkloadSpec{Tenants: 4, OpsPerTenant: 10, Seed: 3}
	plainTr := obs.NewTracer()
	plain, err := RunWorkload(tracedXpComm(16, plainTr.NewScope("plain")), spec)
	if err != nil {
		t.Fatalf("plain RunWorkload: %v", err)
	}

	tr := obs.NewTracer()
	tr.SetMetronome(50 * sim.Microsecond)
	sc := tr.NewScope("metro")
	live, err := RunWorkload(tracedXpComm(16, sc), spec)
	if err != nil {
		t.Fatalf("metronome RunWorkload: %v", err)
	}
	if live.MakespanUS != plain.MakespanUS || live.AggOpsPerSec != plain.AggOpsPerSec {
		t.Fatalf("metronome changed virtual time: makespan %.3fus vs %.3fus",
			live.MakespanUS, plain.MakespanUS)
	}

	ls := published(t, tr)
	if ls.Epoch < 2 {
		t.Fatalf("final epoch %d; expected metronome ticks plus the final publish", ls.Epoch)
	}
	if ls.AtUS <= 0 {
		t.Fatalf("final publication not time-stamped: %+v", ls)
	}
	want := uint64(spec.Tenants * spec.OpsPerTenant)
	var ops uint64
	for _, g := range ls.Groups {
		ops += g.Ops
	}
	if ops != want {
		t.Fatalf("final snapshot: ops=%d, want %d", ops, want)
	}
	rows := tenantRows(tr.LiveSnapshot())
	if len(rows) != spec.Tenants {
		t.Fatalf("tenant-merged rows = %d, want %d: %+v", len(rows), spec.Tenants, rows)
	}
	for i, r := range rows {
		if r.Tenant != i || r.Latency.Count != uint64(spec.OpsPerTenant) {
			t.Fatalf("tenant row %d: %+v", i, r)
		}
	}
}

// A sharded run exposes the same per-tenant snapshot view as an
// unsharded one: every workload-wide tenant appears exactly once in the
// tenant-merged view with its full operation count and pooled latency
// histogram, whatever the partition count.
func TestShardedSnapshotTenantView(t *testing.T) {
	spec := WorkloadSpec{Tenants: 6, OpsPerTenant: 8, Overlap: true,
		GroupSizeMin: 2, GroupSizeMax: 4, Seed: 7}
	tr := obs.NewTracer()
	tr.SetMetronome(100 * sim.Microsecond)
	cs := make([]*Cluster, 3)
	for s := range cs {
		cs[s] = tracedXpComm(16, tr.NewScope(fmt.Sprintf("shard%d", s)))
	}
	if _, err := RunWorkloadSharded(cs, spec); err != nil {
		t.Fatalf("RunWorkloadSharded: %v", err)
	}

	snap := tr.LiveSnapshot()
	if len(snap.Scopes) != 3 {
		t.Fatalf("published scopes = %d, want one per shard", len(snap.Scopes))
	}
	rows := tenantRows(snap)
	if len(rows) != spec.Tenants {
		t.Fatalf("tenant-merged rows = %d, want %d", len(rows), spec.Tenants)
	}
	for i, r := range rows {
		if r.Tenant != i {
			t.Fatalf("row %d is tenant %d", i, r.Tenant)
		}
		if r.Ops != uint64(spec.OpsPerTenant) {
			t.Fatalf("tenant %d: ops=%d, want %d", i, r.Ops, spec.OpsPerTenant)
		}
		if r.Latency.Count != uint64(spec.OpsPerTenant) {
			t.Fatalf("tenant %d pooled latency count = %d", i, r.Latency.Count)
		}
	}
	// The quiescent Snapshot agrees with the published view on the
	// merged tenants (epochs aside, which only the live path stamps).
	quiet := tenantRows(tr.Snapshot())
	if len(quiet) != len(rows) {
		t.Fatalf("quiescent merge rows = %d, live = %d", len(quiet), len(rows))
	}
	for i := range rows {
		if quiet[i].Ops != rows[i].Ops || quiet[i].Latency.Count != rows[i].Latency.Count {
			t.Fatalf("tenant %d: quiescent %+v vs live %+v", i, quiet[i], rows[i])
		}
	}
}

// Scraping LiveSnapshot from another goroutine while the workload runs
// must be race-free and monotone: epochs never regress, and no live
// counter moves backwards between publications. Run under -race in CI.
func TestConcurrentLiveScrape(t *testing.T) {
	spec := WorkloadSpec{Tenants: 6, OpsPerTenant: 40, Seed: 11}
	tr := obs.NewTracer()
	tr.SetMetronome(20 * sim.Microsecond)
	sc := tr.NewScope("scraped")
	c := tracedXpComm(24, sc)

	stop := make(chan struct{})
	scraped := make(chan int)
	go func() {
		var lastEpoch, lastDone, lastFired uint64
		n := 0
		stopping := false
		for {
			select {
			case <-stop:
				// One final observation so the scraper always runs at
				// least once even if the workload beat it to the finish.
				stopping = true
			default:
			}
			snap := tr.LiveSnapshot()
			if len(snap.Scopes) == 0 {
				if stopping {
					scraped <- n
					return
				}
				continue
			}
			s := snap.Scopes[0]
			if s.Epoch < lastEpoch {
				t.Errorf("epoch regressed: %d after %d", s.Epoch, lastEpoch)
			}
			if s.EventsFired < lastFired {
				t.Errorf("eventsFired regressed: %d after %d", s.EventsFired, lastFired)
			}
			var done uint64
			for _, g := range s.Groups {
				done += g.Ops
			}
			if done < lastDone {
				t.Errorf("done ops regressed: %d after %d", done, lastDone)
			}
			lastEpoch, lastFired, lastDone = s.Epoch, s.EventsFired, done
			n++
			if stopping {
				scraped <- n
				return
			}
		}
	}()

	if _, err := RunWorkload(c, spec); err != nil {
		t.Fatalf("RunWorkload: %v", err)
	}
	close(stop)
	if n := <-scraped; n == 0 {
		t.Fatal("scraper never ran")
	}
	ls := published(t, tr)
	var done uint64
	for _, g := range ls.Groups {
		done += g.Ops
	}
	if want := uint64(spec.Tenants * spec.OpsPerTenant); done != want {
		t.Fatalf("final done = %d, want %d", done, want)
	}
}
