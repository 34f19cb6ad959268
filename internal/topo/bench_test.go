package topo

import "testing"

// BenchmarkFatTreeRoute measures steady-state routing on a 64-host
// tree: the closed-form composition into the route scratch, the wire
// simulator's per-packet hot path (0 allocs/op).
func BenchmarkFatTreeRoute(b *testing.B) {
	ft := newFatTree(4, 3)
	for src := 0; src < ft.Hosts(); src++ {
		for dst := 0; dst < ft.Hosts(); dst++ {
			ft.Route(src, dst)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ft.Route(i%64, (i*37+11)%64)
	}
}

// BenchmarkFatTreeRoute64k is BenchmarkFatTreeRoute at the paper's
// scale target: 65536 hosts (k=4, n=8). The compact representation
// makes this tree ~2 MB instead of the tens of gigabytes a dense
// memoized route table needs, and routing must stay 0 allocs/op — the
// CI zero-alloc gate runs this benchmark.
func BenchmarkFatTreeRoute64k(b *testing.B) {
	ft := newFatTree(4, 8)
	h := ft.Hosts()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ft.Route(i%h, (i*37+11)%h)
	}
}

// BenchmarkFatTreeRouteCold measures construction plus first routes on
// a fresh tree every iteration: the price of interning the per-source
// up-paths, paid once per simulation.
func BenchmarkFatTreeRouteCold(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ft := newFatTree(4, 2)
		for dst := 1; dst < 16; dst++ {
			ft.Route(0, dst)
		}
	}
}

// BenchmarkFatTreeRouteOneLevel routes on the 16-ary 1-tree, the single
// 16-port crossbar of the paper's Myrinet testbeds: one uplink and one
// downlink per route (0 allocs/op).
func BenchmarkFatTreeRouteOneLevel(b *testing.B) {
	c := MinFatTree(16, 16)
	for src := 0; src < 16; src++ {
		for dst := 0; dst < 16; dst++ {
			c.Route(src, dst)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Route(i%16, (i*7+3)%16)
	}
}

func TestRouteMemoZeroAlloc(t *testing.T) {
	ft := newFatTree(4, 2)
	c := MinFatTree(16, 16)
	for src := 0; src < 16; src++ {
		for dst := 0; dst < 16; dst++ {
			ft.Route(src, dst)
			c.Route(src, dst)
		}
	}
	if allocs := testing.AllocsPerRun(500, func() { ft.Route(3, 14) }); allocs != 0 {
		t.Fatalf("warm FatTree.Route allocates %.1f objects, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(500, func() { c.Route(3, 14) }); allocs != 0 {
		t.Fatalf("warm one-level FatTree.Route allocates %.1f objects, want 0", allocs)
	}
}

// Warm routes must be stable — repeated calls for the same pair return
// the identical slice (same base address, same contents), because the
// answer is composed into the topology's fixed scratch buffer — and
// identical to what a fresh topology computes.
func TestRouteMemoStable(t *testing.T) {
	ft := newFatTree(4, 2)
	fresh := newFatTree(4, 2)
	for src := 0; src < 16; src++ {
		for dst := 0; dst < 16; dst++ {
			first := ft.Route(src, dst)
			again := ft.Route(src, dst)
			if src == dst {
				if first != nil || again != nil {
					t.Fatalf("self route %d->%d not nil", src, dst)
				}
				continue
			}
			if &first[0] != &again[0] || len(first) != len(again) {
				t.Fatalf("route %d->%d not memoized: %p vs %p", src, dst, first, again)
			}
			want := fresh.Route(src, dst)
			if len(first) != len(want) {
				t.Fatalf("route %d->%d length %d vs fresh %d", src, dst, len(first), len(want))
			}
			for i := range first {
				if first[i] != want[i] {
					t.Fatalf("route %d->%d differs from fresh at hop %d", src, dst, i)
				}
			}
		}
	}
}
