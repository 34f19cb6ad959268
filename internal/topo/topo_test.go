package topo

import (
	"strings"
	"testing"
	"testing/quick"
)

// routeIsConnected verifies that a route's links chain from src to dst by
// matching printed endpoint labels.
func routeIsConnected(t *testing.T, topo Topology, src, dst int) {
	t.Helper()
	route := topo.Route(src, dst)
	if src == dst {
		if route != nil {
			t.Fatalf("self route %d->%d not nil: %v", src, dst, route)
		}
		return
	}
	if len(route) == 0 {
		t.Fatalf("empty route %d->%d", src, dst)
	}
	prevTo := ""
	for i, link := range route {
		from, to := topo.LinkEnds(link)
		if i == 0 {
			if !strings.HasPrefix(from, "host") {
				t.Fatalf("route %d->%d starts at %q", src, dst, from)
			}
		} else if from != prevTo {
			t.Fatalf("route %d->%d breaks at hop %d: %q -> %q", src, dst, i, prevTo, from)
		}
		prevTo = to
	}
	if want := hostLabel(dst); prevTo != want {
		t.Fatalf("route %d->%d ends at %q, want %q", src, dst, prevTo, want)
	}
	// A route visits len(route)-1 switches.
	if got := topo.SwitchHops(src, dst); got != len(route)-1 {
		t.Fatalf("SwitchHops(%d,%d) = %d, route has %d switches",
			src, dst, got, len(route)-1)
	}
}

func hostLabel(h int) string {
	return "host" + itoa(h)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func TestCrossbarRoutes(t *testing.T) {
	c := MinFatTree(16, 16)
	if c.Hosts() != 16 || c.LinkCount() != 32 || c.Levels() != 1 {
		t.Fatalf("crossbar geometry: hosts=%d links=%d levels=%d",
			c.Hosts(), c.LinkCount(), c.Levels())
	}
	for src := 0; src < 16; src++ {
		for dst := 0; dst < 16; dst++ {
			routeIsConnected(t, c, src, dst)
			want := 1
			if src == dst {
				want = 0
			}
			if got := c.SwitchHops(src, dst); got != want {
				t.Fatalf("SwitchHops(%d,%d) = %d", src, dst, got)
			}
		}
	}
}

// A single crossbar serving n hosts is the n-ary 1-tree: for every
// cluster that fits one 16-port Myrinet switch, host s's uplink is
// link 2s, host d's downlink is 2d+1, and every route crosses one
// switch over those two links.
func TestCrossbarIsOneLevelFatTree(t *testing.T) {
	for n := 2; n <= 16; n++ {
		c := MinFatTree(n, n)
		if c.Hosts() != n || c.LinkCount() != 2*n || c.Levels() != 1 {
			t.Fatalf("n=%d: hosts=%d links=%d levels=%d", n, c.Hosts(), c.LinkCount(), c.Levels())
		}
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				if src == dst {
					continue
				}
				if r := c.Route(src, dst); len(r) != 2 || r[0] != 2*src || r[1] != 2*dst+1 {
					t.Fatalf("n=%d: route %d->%d = %v, want [%d %d]", n, src, dst, r, 2*src, 2*dst+1)
				}
				if hops := c.SwitchHops(src, dst); hops != 1 {
					t.Fatalf("n=%d: SwitchHops(%d,%d) = %d, want 1", n, src, dst, hops)
				}
			}
		}
	}
}

func TestCrossbarPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero hosts":   func() { MinFatTree(0, 0) },
		"bad route":    func() { MinFatTree(4, 4).Route(0, 9) },
		"bad linkends": func() { MinFatTree(4, 4).LinkEnds(99) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestFatTreeGeometry(t *testing.T) {
	cases := []struct {
		k, n        int
		hosts       int
		linkCount   int
		description string
	}{
		// QsNet "dimension two quaternary fat tree": 16 hosts,
		// 2 levels of 4 switches; host links 32, inter-switch 32.
		{4, 2, 16, 64, "qsnet dim-2"},
		{4, 1, 4, 8, "trivial"},
		{2, 3, 8, 48, "binary 3-tree"},
		{8, 2, 64, 256, "myrinet clos"},
	}
	for _, c := range cases {
		ft := newFatTree(c.k, c.n)
		if ft.Hosts() != c.hosts {
			t.Errorf("%s: hosts = %d, want %d", c.description, ft.Hosts(), c.hosts)
		}
		if ft.Levels() != c.n {
			t.Errorf("%s: levels = %d, want %d", c.description, ft.Levels(), c.n)
		}
		if ft.k != c.k {
			t.Errorf("%s: arity = %d, want %d", c.description, ft.k, c.k)
		}
		// 2*k^n host links plus 2*k^n per inter-level boundary.
		want := 2*c.hosts + 2*c.hosts*(c.n-1)
		if ft.LinkCount() != want {
			t.Errorf("%s: links = %d, want %d", c.description, ft.LinkCount(), want)
		}
		if c.linkCount != want {
			t.Errorf("%s: test table inconsistent: %d vs %d", c.description, c.linkCount, want)
		}
	}
}

func TestFatTreeRoutesExhaustive(t *testing.T) {
	for _, dims := range [][2]int{{4, 2}, {2, 3}, {3, 2}} {
		ft := newFatTree(dims[0], dims[1])
		for src := 0; src < ft.Hosts(); src++ {
			for dst := 0; dst < ft.Hosts(); dst++ {
				routeIsConnected(t, ft, src, dst)
			}
		}
	}
}

func TestFatTreeHopCounts(t *testing.T) {
	ft := newFatTree(4, 2) // hosts 0..15, digits d1 d0
	cases := []struct{ src, dst, hops int }{
		{0, 0, 0},
		{0, 1, 1},  // same leaf (differ in d0)
		{0, 3, 1},  // same leaf
		{0, 4, 3},  // differ in d1: up to level 1, down
		{0, 15, 3}, // differ in d1
		{5, 7, 1},  // same leaf
	}
	for _, c := range cases {
		if got := ft.SwitchHops(c.src, c.dst); got != c.hops {
			t.Errorf("SwitchHops(%d,%d) = %d, want %d", c.src, c.dst, got, c.hops)
		}
	}
}

func TestFatTreeHopSymmetry(t *testing.T) {
	ft := newFatTree(4, 3)
	for src := 0; src < ft.Hosts(); src += 7 {
		for dst := 0; dst < ft.Hosts(); dst += 5 {
			if ft.SwitchHops(src, dst) != ft.SwitchHops(dst, src) {
				t.Fatalf("asymmetric hops %d<->%d", src, dst)
			}
		}
	}
}

func TestMinFatTree(t *testing.T) {
	cases := []struct{ k, hosts, wantN, wantHosts int }{
		{4, 1, 1, 4},
		{4, 4, 1, 4},
		{4, 5, 2, 16},
		{4, 16, 2, 16},
		{4, 17, 3, 64},
		{4, 1024, 5, 1024},
		{8, 16, 2, 64},
	}
	for _, c := range cases {
		ft := MinFatTree(c.k, c.hosts)
		if ft.Levels() != c.wantN || ft.Hosts() != c.wantHosts {
			t.Errorf("MinFatTree(%d,%d): n=%d hosts=%d, want n=%d hosts=%d",
				c.k, c.hosts, ft.Levels(), ft.Hosts(), c.wantN, c.wantHosts)
		}
	}
}

func TestFatTreePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"arity 1":     func() { newFatTree(1, 2) },
		"dim 0":       func() { newFatTree(4, 0) },
		"zero hosts":  func() { MinFatTree(4, 0) },
		"route range": func() { newFatTree(4, 2).Route(0, 16) },
		"link range":  func() { newFatTree(4, 2).LinkEnds(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// Property: on any modest fat tree, every route is connected, visits
// 2m+1 switches for some m < n, and never repeats a link.
func TestFatTreeRouteProperty(t *testing.T) {
	trees := []*FatTree{newFatTree(2, 4), newFatTree(4, 3), newFatTree(5, 2)}
	f := func(ti, srcRaw, dstRaw uint16) bool {
		ft := trees[int(ti)%len(trees)]
		src := int(srcRaw) % ft.Hosts()
		dst := int(dstRaw) % ft.Hosts()
		route := ft.Route(src, dst)
		if src == dst {
			return route == nil
		}
		hops := len(route) - 1
		if hops < 1 || hops > 2*ft.Levels()-1 || hops%2 == 0 {
			return false
		}
		seen := make(map[int]bool, len(route))
		for _, l := range route {
			if seen[l] {
				return false
			}
			seen[l] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// The paper's 1024-node extrapolation needs a 4-ary 5-tree; make sure
// construction and routing stay correct and fast at that size.
func TestFatTree1024(t *testing.T) {
	ft := newFatTree(4, 5)
	if ft.Hosts() != 1024 {
		t.Fatalf("hosts = %d", ft.Hosts())
	}
	routeIsConnected(t, ft, 0, 1023)
	if got := ft.SwitchHops(0, 1023); got != 9 {
		t.Fatalf("SwitchHops(0,1023) = %d, want 9", got)
	}
	routeIsConnected(t, ft, 512, 513)
	if got := ft.SwitchHops(512, 513); got != 1 {
		t.Fatalf("SwitchHops(512,513) = %d, want 1", got)
	}
}
