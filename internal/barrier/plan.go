package barrier

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Plan is the step table of one collective over an n-rank group. Every
// peer in it is stored as its offset (peer − rank) mod n from the rank
// that reads it, so ranks whose schedules differ only by a rotation share
// one table: a dissemination plan holds a single table for all its ranks
// (at step m rank i sends to i+2^m and waits on i−2^m). Gather-broadcast,
// pairwise exchange and broadcast trees have no such symmetry; their
// plans build a rank's own table when Rank asks for it.
//
// Sessions build one plan and hand each member its Rank view.
type Plan struct {
	alg    Algorithm
	n      int
	degree int // tree arity of gather-broadcast and broadcast plans
	root   int // broadcast root
	// shared is the table every rank reads when the schedule is
	// rotation-invariant (dissemination, and any one-rank group).
	shared *table
}

// broadcast is the Algorithm of broadcast-tree schedules, which are not
// barriers.
const broadcast Algorithm = -1

func checkSize(n int) {
	if n < 1 || n > math.MaxInt32 {
		panic(fmt.Sprintf("barrier: group size %d", n))
	}
}

// Rank returns rank's schedule. On a shared plan it is a view of the one
// table and costs nothing; otherwise it builds the rank's table.
func (p *Plan) Rank(rank int) Schedule {
	if rank < 0 || rank >= p.n {
		panic(fmt.Sprintf("barrier: rank %d outside group of %d", rank, p.n))
	}
	if p.shared != nil {
		return Schedule{p.shared, rank}
	}
	var t *table
	switch p.alg {
	case PairwiseExchange:
		t = pairwiseTable(p.n, rank)
	case GatherBroadcast:
		t = gatherBroadcastTable(p.n, rank, p.degree)
	case broadcast:
		t = broadcastTable(p.n, rank, p.root, p.degree)
	}
	return Schedule{t, rank}
}

// all returns every rank's schedule.
func (p *Plan) all() []Schedule {
	out := make([]Schedule, p.n)
	for r := range out {
		out[r] = p.Rank(r)
	}
	return out
}

// Schedule is one rank's complete collective script: a view of a plan's
// step table from that rank. Steps run in order. When a step starts (all
// earlier steps completed) the rank notifies every peer on the step's
// send list (AppendSends); the step completes once notifications from
// every peer on its wait list (AppendWaits) have arrived.
// Notifications may arrive before their step starts and must be buffered
// — the bit-vector bookkeeping in the NIC collective protocol exists for
// exactly this.
//
// ResultWait marks steps whose awaited messages carry a final combined
// result rather than a partial contribution (the broadcast-down phase of
// gather-broadcast). Barriers ignore it; the allreduce extension uses it
// to replace instead of combine.
type Schedule struct {
	t    *table
	rank int
}

// Algorithm reports the schedule's algorithm (-1 for a broadcast tree).
func (s Schedule) Algorithm() Algorithm { return s.t.alg }

// Size reports the group size.
func (s Schedule) Size() int { return s.t.n }

// Rank reports the rank the schedule belongs to.
func (s Schedule) Rank() int { return s.rank }

// Steps reports the number of steps.
func (s Schedule) Steps() int { return len(s.t.steps) }

// AppendSends appends the ranks step i notifies, in order, to dst.
func (s Schedule) AppendSends(dst []int, i int) []int {
	lo := int32(0)
	if i > 0 {
		lo = s.t.steps[i-1].sends
	}
	return s.appendRanks(dst, s.t.sends[lo:s.t.steps[i].sends])
}

// AppendWaits appends the ranks step i waits on, in order, to dst.
func (s Schedule) AppendWaits(dst []int, i int) []int {
	lo := int32(0)
	if i > 0 {
		lo = s.t.steps[i-1].waits
	}
	return s.appendRanks(dst, s.t.waits[lo:s.t.steps[i].waits])
}

// WaitEnd returns the arrival bit just past step i's waits. Arrival bits
// number the waits in schedule order, so step i waits on bits
// WaitEnd(i−1) (0 for the first step) up to WaitEnd(i).
func (s Schedule) WaitEnd(i int) int { return int(s.t.steps[i].waits) }

// ResultWait reports whether step i's awaited messages carry the final
// result.
func (s Schedule) ResultWait(i int) bool { return s.t.steps[i].result }

// TotalWaits counts the notifications the rank awaits per operation.
func (s Schedule) TotalWaits() int { return len(s.t.waits) }

// TotalSends counts the notifications the rank transmits per operation.
func (s Schedule) TotalSends() int { return len(s.t.sends) }

// Sender returns the rank whose notification sets arrival bit bit.
func (s Schedule) Sender(bit int) int { return s.abs(s.t.waits[bit]) }

// ExpectedArrivals returns, in step order, the ranks whose notifications
// the schedule waits for. The NIC collective protocol numbers its
// arrival bits in this order.
func (s Schedule) ExpectedArrivals() []int {
	return s.appendRanks(make([]int, 0, len(s.t.waits)), s.t.waits)
}

// Arrival locates fromRank's notification: its arrival bit and the step
// waiting on it. ok is false when the schedule never waits on fromRank.
func (s Schedule) Arrival(fromRank int) (bit, step int, ok bool) {
	return s.find(s.t.waitSlots, fromRank)
}

// Dest locates toRank among the rank's destinations: its index in
// schedule send order and the step sending to it. ok is false when the
// schedule never sends to toRank.
func (s Schedule) Dest(toRank int) (index, step int, ok bool) {
	return s.find(s.t.sendSlots, toRank)
}

// Shares reports whether s and o read the same step table.
func (s Schedule) Shares(o Schedule) bool { return s.t == o.t }

// abs resolves an offset from the schedule's rank to the rank it names.
func (s Schedule) abs(off int32) int {
	r := s.rank + int(off)
	if r >= s.t.n {
		r -= s.t.n
	}
	return r
}

func (s Schedule) appendRanks(dst []int, offs []int32) []int {
	for _, off := range offs {
		dst = append(dst, s.abs(off))
	}
	return dst
}

// find looks peer up in ss, which is sorted by offset. The offset
// (peer − rank) mod n costs one subtraction and a conditional add.
func (s Schedule) find(ss []slot, peer int) (index, step int, ok bool) {
	n := s.t.n
	if uint(peer) >= uint(n) {
		return 0, 0, false
	}
	off := peer - s.rank
	if off < 0 {
		off += n
	}
	lo, hi := 0, len(ss)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if int(ss[m].off) < off {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(ss) && int(ss[lo].off) == off {
		return int(ss[lo].index), int(ss[lo].step), true
	}
	return 0, 0, false
}

// table is one step table. Its peers are offsets from the reading rank;
// a shared table is built as rank 0's and read rotated by every rank.
type table struct {
	alg   Algorithm
	n     int
	steps []step
	// sends and waits hold every step's peers in schedule order, carved
	// from one array; step i's lists end at steps[i].sends and .waits. A
	// wait's position is its arrival bit.
	sends, waits []int32
	// sendSlots and waitSlots index the same peers sorted by offset,
	// carved from one array, for the per-message lookups.
	sendSlots, waitSlots []slot
}

// step records where one step's lists end, and its ResultWait flag.
type step struct {
	sends, waits int32
	result       bool
}

// slot locates one peer offset: its position in schedule order and the
// step that lists it.
type slot struct{ off, index, step int32 }

// newTable starts a table with room for the given numbers of steps,
// sends and waits; constructors fill it with send, wait and endStep, then
// call index.
func newTable(alg Algorithm, n, steps, sends, waits int) *table {
	peers := make([]int32, sends+waits)
	return &table{
		alg:   alg,
		n:     n,
		steps: make([]step, 0, steps),
		sends: peers[:0:sends],
		waits: peers[sends:sends],
	}
}

// rel converts peer, as seen from rank, to its offset.
func (t *table) rel(rank, peer int) int32 {
	if peer < 0 || peer >= t.n || peer == rank {
		panic(fmt.Sprintf("barrier: rank %d lists invalid peer %d", rank, peer))
	}
	off := peer - rank
	if off < 0 {
		off += t.n
	}
	return int32(off)
}

func (t *table) send(rank, peer int) { t.sends = append(t.sends, t.rel(rank, peer)) }
func (t *table) wait(rank, peer int) { t.waits = append(t.waits, t.rel(rank, peer)) }

// endStep closes the step whose peers were added since the previous one.
func (t *table) endStep(result bool) {
	t.steps = append(t.steps, step{int32(len(t.sends)), int32(len(t.waits)), result})
}

// index builds the sorted slot lists. It panics when a peer is listed
// twice in one direction: a notification is identified by its sender,
// so each ordered pair may occur at most once per operation.
func (t *table) index() *table {
	ns := len(t.sends)
	slots := make([]slot, ns+len(t.waits))
	t.sendSlots, t.waitSlots = slots[:ns:ns], slots[ns:]
	var send, wait int32
	for i, st := range t.steps {
		for ; send < st.sends; send++ {
			t.sendSlots[send] = slot{t.sends[send], send, int32(i)}
		}
		for ; wait < st.waits; wait++ {
			t.waitSlots[wait] = slot{t.waits[wait], wait, int32(i)}
		}
	}
	sortSlots(t.sendSlots, "sends twice to")
	sortSlots(t.waitSlots, "waits twice on")
	return t
}

func sortSlots(ss []slot, twice string) {
	slices.SortFunc(ss, func(a, b slot) int { return cmp.Compare(a.off, b.off) })
	for i := 1; i < len(ss); i++ {
		if ss[i].off == ss[i-1].off {
			panic(fmt.Sprintf("barrier: schedule %s offset %d", twice, ss[i].off))
		}
	}
}
