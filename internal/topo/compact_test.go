package topo

import (
	"fmt"
	"testing"
)

// refTree is the reference fat-tree construction the compact closed-form
// implementation replaced: it materializes the adjacency and assigns
// link IDs by enumeration (host up/down pairs, then inter-switch pairs
// level by level, lower label by lower label, upper digit by upper
// digit), and builds routes by scanning that adjacency. The compact
// FatTree must reproduce its link IDs, endpoint labels and routes
// bit-for-bit — the network simulator's contention model and therefore
// every gated baseline metric depends on the IDs staying put.
type refTree struct {
	k, n    int
	hosts   int
	swPerLv int
	out     map[int][][2]int // node -> (neighbor, link ID)
	ends    [][2]int         // link ID -> (from, to) encoded node IDs
}

func newRefTree(k, n int) *refTree {
	r := &refTree{k: k, n: n, hosts: pow(k, n), swPerLv: pow(k, n-1), out: map[int][][2]int{}}
	for h := 0; h < r.hosts; h++ {
		leaf := r.swID(0, h/k)
		r.addLink(h, leaf)
		r.addLink(leaf, h)
	}
	for l := 0; l+1 < n; l++ {
		stride := pow(k, l)
		for c := 0; c < r.swPerLv; c++ {
			lower := r.swID(l, c)
			base := c - (c/stride%k)*stride
			for d := 0; d < k; d++ {
				upper := r.swID(l+1, base+d*stride)
				r.addLink(lower, upper)
				r.addLink(upper, lower)
			}
		}
	}
	return r
}

func (r *refTree) swID(level, c int) int { return r.hosts + level*r.swPerLv + c }

func (r *refTree) addLink(from, to int) {
	r.out[from] = append(r.out[from], [2]int{to, len(r.ends)})
	r.ends = append(r.ends, [2]int{from, to})
}

func (r *refTree) linkID(from, to int) int {
	for _, l := range r.out[from] {
		if l[0] == to {
			return l[1]
		}
	}
	panic(fmt.Sprintf("ref: no link %d->%d", from, to))
}

func (r *refTree) ncaLevel(src, dst int) int {
	m := 0
	for i := 0; i < r.n; i++ {
		if src%r.k != dst%r.k {
			m = i
		}
		src /= r.k
		dst /= r.k
	}
	return m
}

func (r *refTree) route(src, dst int) []int {
	m := r.ncaLevel(src, dst)
	path := make([]int, 0, 2*m+2)
	c := src / r.k
	path = append(path, r.linkID(src, r.swID(0, c)))
	for l := 0; l < m; l++ {
		path = append(path, r.linkID(r.swID(l, c), r.swID(l+1, c)))
	}
	for l := m - 1; l >= 0; l-- {
		stride := pow(r.k, l)
		digit := dst / pow(r.k, l+1) % r.k
		next := c - (c/stride%r.k)*stride + digit*stride
		path = append(path, r.linkID(r.swID(l+1, c), r.swID(l, next)))
		c = next
	}
	path = append(path, r.linkID(r.swID(0, c), dst))
	return path
}

func (r *refTree) nodeName(id int) string {
	if id < r.hosts {
		return fmt.Sprintf("host%d", id)
	}
	id -= r.hosts
	return fmt.Sprintf("sw<%d,%d>", id/r.swPerLv, id%r.swPerLv)
}

// TestFatTreeMatchesReferenceConstruction pins the compact closed-form
// topology to the reference adjacency build: identical link counts,
// identical LinkEnds labels for every ID, and identical route link
// sequences for every (src, dst) pair.
func TestFatTreeMatchesReferenceConstruction(t *testing.T) {
	for _, dims := range [][2]int{{4, 2}, {2, 3}, {3, 2}, {8, 2}, {4, 3}, {2, 4}} {
		k, n := dims[0], dims[1]
		t.Run(fmt.Sprintf("k%d-n%d", k, n), func(t *testing.T) {
			ft := newFatTree(k, n)
			ref := newRefTree(k, n)
			if ft.LinkCount() != len(ref.ends) {
				t.Fatalf("link count %d, reference %d", ft.LinkCount(), len(ref.ends))
			}
			for id := 0; id < ft.LinkCount(); id++ {
				from, to := ft.LinkEnds(id)
				wantFrom, wantTo := ref.nodeName(ref.ends[id][0]), ref.nodeName(ref.ends[id][1])
				if from != wantFrom || to != wantTo {
					t.Fatalf("link %d ends (%s,%s), reference (%s,%s)", id, from, to, wantFrom, wantTo)
				}
			}
			for src := 0; src < ft.Hosts(); src++ {
				for dst := 0; dst < ft.Hosts(); dst++ {
					if src == dst {
						continue
					}
					got := ft.Route(src, dst)
					want := ref.route(src, dst)
					if len(got) != len(want) {
						t.Fatalf("route %d->%d length %d, reference %d", src, dst, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("route %d->%d hop %d link %d, reference %d (%v vs %v)",
								src, dst, i, got[i], want[i], got, want)
						}
					}
				}
			}
		})
	}
}

// Route answers live in the topology's scratch buffer: they are stable
// (same backing array, same contents) across repeated identical calls,
// but a call for a different pair overwrites them. This pins the
// documented lifetime contract the wire simulator relies on.
func TestRouteScratchLifetime(t *testing.T) {
	ft := newFatTree(4, 3)
	first := ft.Route(3, 47)
	want := append([]int(nil), first...)
	ft.Route(61, 2) // overwrites the scratch
	again := ft.Route(3, 47)
	if &first[0] != &again[0] {
		t.Fatalf("scratch base moved: %p vs %p", first, again)
	}
	for i := range want {
		if again[i] != want[i] {
			t.Fatalf("recomputed route differs at hop %d: %v vs %v", i, again, want)
		}
	}
}
