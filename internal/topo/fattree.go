package topo

import "fmt"

// FatTree is a k-ary n-tree, the standard formalization of the fat-tree
// networks built from constant-radix crossbars:
//
//   - k^n processing nodes (hosts), each labeled by n base-k digits
//     d_{n-1} ... d_0;
//   - n * k^(n-1) switches of radix 2k, labeled <l, c> with level
//     l in [0, n) and an (n-1)-digit base-k tuple c;
//   - host d is attached to leaf switch <0, d/k>;
//   - switch <l, c> connects upward to every <l+1, c'> whose label agrees
//     with c in all positions except position l.
//
// Quadrics QsNet is a quaternary (k=4) fat tree of Elite switches; the
// paper's Elan3 cluster uses a "dimension two, quaternary fat tree"
// (k=4, n=2, Elite-16). Myrinet Clos networks beyond a single crossbar are
// modeled as k=8 trees of 16-port switches.
//
// Routing ascends straight up to the lowest common ancestor level (the
// most significant digit where source and destination differ), then
// descends deterministically, fixing one destination digit per level.
// This is minimal up*/down routing; a route through level m crosses
// 2m+1 switches.
//
// Link IDs are assigned in a fixed enumeration order (host up/down pairs
// first, then the inter-switch pairs level by level), which makes every
// ID a closed-form function of its endpoints — see linkUp/linkDown. The
// topology therefore stores no adjacency and no per-pair route table:
// its memory is O(hosts·n) for the interned per-source up-paths plus a
// 2n-entry route scratch, instead of the O(hosts²) dense rows a
// memoizing table needs. At 64k hosts that is ~2 MB instead of tens of
// gigabytes, which is what lets the 64k shard-scale point run at all.
type FatTree struct {
	k, n    int
	hosts   int
	swPerLv int   // k^(n-1)
	strides []int // strides[l] = k^l, l in [0, n]
	// up interns every source's straight-up ascent as one dense row of
	// n link IDs: up[src*n] is the host uplink, up[src*n+1+l] the
	// level-l → level-l+1 link of the path whose switch label stays
	// src/k. A route to NCA level m copies the row's first m+1 entries;
	// the descent is composed arithmetically (it depends on both
	// endpoints, so it cannot be interned per destination).
	up []int32
	// scratch is the caller-visible route buffer: Route composes the
	// up-path prefix and the computed down-path here and returns a
	// sub-slice. One buffer suffices because a route's maximum length
	// is 2n and the topology is single-goroutine state (see the
	// package comment for the lifetime contract).
	scratch []int
}

// newFatTree constructs a k-ary n-tree. It panics for k < 2 or n < 1;
// use MinFatTree to size a tree for a host count.
func newFatTree(k, n int) *FatTree {
	if k < 2 {
		panic("topo: fat tree arity must be >= 2")
	}
	if n < 1 {
		panic("topo: fat tree dimension must be >= 1")
	}
	hosts := pow(k, n)
	swPerLv := pow(k, n-1)
	t := &FatTree{
		k:       k,
		n:       n,
		hosts:   hosts,
		swPerLv: swPerLv,
		strides: make([]int, n+1),
		scratch: make([]int, 2*n),
	}
	for l, s := 0, 1; l <= n; l, s = l+1, s*k {
		t.strides[l] = s
	}
	t.internUpPaths()
	return t
}

// MinFatTree returns the smallest k-ary n-tree with at least hosts
// endpoints (n = ceil(log_k hosts), at minimum 1).
func MinFatTree(k, hosts int) *FatTree {
	if hosts < 1 {
		panic("topo: need at least one host")
	}
	n := 1
	for cap := k; cap < hosts; cap *= k {
		n++
	}
	return newFatTree(k, n)
}

func pow(b, e int) int {
	r := 1
	for i := 0; i < e; i++ {
		r *= b
	}
	return r
}

// Node encoding: hosts occupy [0, hosts); switch <l, c> is encoded as
// hosts + l*swPerLv + c.
func (t *FatTree) swID(level, c int) int { return t.hosts + level*t.swPerLv + c }

// Link enumeration: host h's uplink is 2h and its downlink 2h+1; the
// inter-switch block starts at 2·hosts and assigns, for the pair
// between lower switch <l, c> and the upper switch agreeing with c
// except digit position l (which holds d), the up ID
// 2·hosts + 2·((l·swPerLv + c)·k + d) and the down ID one above it.
// This is exactly the order an adjacency-building constructor would
// enumerate (hosts first, then levels, lower labels, upper digits), so
// the IDs are stable and a reference-equivalence test can pin them.

func (t *FatTree) interBase() int { return 2 * t.hosts }

// linkUp is the ID of the upward link from <l, c> to the upper switch
// whose digit at position l is d.
func (t *FatTree) linkUp(l, c, d int) int {
	return t.interBase() + 2*((l*t.swPerLv+c)*t.k+d)
}

// linkDown is the ID of the downward link onto <l, c> from the upper
// switch whose digit at position l is d; it is always linkUp's pair.
func (t *FatTree) linkDown(l, c, d int) int {
	return t.linkUp(l, c, d) + 1
}

// internUpPaths fills the per-source ascent table. The straight-up path
// from src keeps switch label c = src/k at every level, so the level-l
// uplink's upper digit is c's own digit at position l.
func (t *FatTree) internUpPaths() {
	t.up = make([]int32, t.hosts*t.n)
	for src := 0; src < t.hosts; src++ {
		row := t.up[src*t.n : (src+1)*t.n]
		row[0] = int32(2 * src)
		c := src / t.k
		for l := 0; l+1 < t.n; l++ {
			row[l+1] = int32(t.linkUp(l, c, c/t.strides[l]%t.k))
		}
	}
}

func (t *FatTree) Name() string { return fmt.Sprintf("fattree-%dary-%dtree", t.k, t.n) }

func (t *FatTree) Hosts() int { return t.hosts }

// LinkCount: 2·hosts host links plus 2·hosts per inter-level boundary.
func (t *FatTree) LinkCount() int { return 2 * t.hosts * t.n }

func (t *FatTree) Levels() int { return t.n }

// ncaLevel reports the most significant base-k digit position where src
// and dst differ; routing must ascend to switch level ncaLevel.
func (t *FatTree) ncaLevel(src, dst int) int {
	m := 0
	for i := 0; i < t.n; i++ {
		if src%t.k != dst%t.k {
			m = i
		}
		src /= t.k
		dst /= t.k
	}
	return m
}

func (t *FatTree) SwitchHops(src, dst int) int {
	checkHostRange(t, src, dst)
	if src == dst {
		return 0
	}
	return 2*t.ncaLevel(src, dst) + 1
}

// Route composes the interned up-path prefix with the arithmetically
// derived down-path in the topology's scratch buffer. The returned
// slice is valid until the next Route call on this topology.
func (t *FatTree) Route(src, dst int) []int {
	checkHostRange(t, src, dst)
	if src == dst {
		return nil
	}
	m := t.ncaLevel(src, dst)
	buf := t.scratch[:2*m+2]

	// Ascend straight up: the first m+1 interned links of src's row.
	row := t.up[src*t.n:]
	for i := 0; i <= m; i++ {
		buf[i] = int(row[i])
	}
	// Descend, fixing label position l to the destination's digit
	// d_{l+1} at each step from level l+1 to level l. The from-switch
	// still holds the source's digit at position l, which is the upper
	// digit the link enumeration keys on.
	c := src / t.k
	for l := m - 1; l >= 0; l-- {
		stride := t.strides[l]
		s := c / stride % t.k           // source digit at label position l
		d := dst / t.strides[l+1] % t.k // destination digit replacing it
		next := c + (d-s)*stride        // label with position l fixed
		buf[2*m-l] = t.linkDown(l, next, s)
		c = next
	}
	buf[2*m+1] = 2*dst + 1
	return buf
}

// LinkEnds inverts the closed-form link enumeration back to endpoint
// labels; no adjacency is stored.
func (t *FatTree) LinkEnds(link int) (string, string) {
	if link < 0 || link >= t.LinkCount() {
		panic(fmt.Sprintf("topo: link %d out of range", link))
	}
	if link < t.interBase() {
		host := t.nodeName(link / 2)
		leaf := t.nodeName(t.swID(0, link/2/t.k))
		if link%2 == 0 {
			return host, leaf
		}
		return leaf, host
	}
	q := link - t.interBase()
	idx := q / 2
	l := idx / (t.swPerLv * t.k)
	rem := idx % (t.swPerLv * t.k)
	c, d := rem/t.k, rem%t.k
	stride := t.strides[l]
	cu := c - c/stride%t.k*stride + d*stride
	lower, upper := t.nodeName(t.swID(l, c)), t.nodeName(t.swID(l+1, cu))
	if q%2 == 0 {
		return lower, upper
	}
	return upper, lower
}

func (t *FatTree) nodeName(id int) string {
	if id < t.hosts {
		return fmt.Sprintf("host%d", id)
	}
	id -= t.hosts
	return fmt.Sprintf("sw<%d,%d>", id/t.swPerLv, id%t.swPerLv)
}
