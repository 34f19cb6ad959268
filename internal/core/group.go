package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"
)

// ErrSlotsExhausted is wrapped by backend install errors when a member
// NIC has no free group slot (Myrinet group-queue entries, Elan
// chained-descriptor lists). The communicator layer's admission
// controller matches on it with errors.Is to distinguish "full, retry or
// re-place" from genuinely invalid configurations.
var ErrSlotsExhausted = errors.New("NIC group slots exhausted")

// GroupID names a process group. Group 0 is conventionally "all ranks",
// mirroring MPI_COMM_WORLD.
type GroupID int

// Group is a process group's membership, shared by every member of the
// session that installs it; each member's NIC entry pairs it with the
// member's own rank. Nodes[r] is the network address (host index) of
// rank r.
type Group struct {
	ID    GroupID
	Nodes []int

	index rankIndex
}

// rankIndex is a group's node→rank map, built on the first RankOf call:
// only host-driven schemes map arriving nodes back to ranks, so NIC-based
// groups never pay for it.
type rankIndex struct {
	once   sync.Once
	rankOf map[int]int
}

// NewGroup builds a group. Nodes must be distinct.
func NewGroup(id GroupID, nodes []int) *Group {
	g := &Group{
		ID:    id,
		Nodes: append([]int(nil), nodes...),
	}
	sorted := slices.Clone(nodes)
	slices.Sort(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			panic(fmt.Sprintf("core: node %d appears twice in group %d", sorted[i], id))
		}
	}
	return g
}

// Size reports the number of ranks.
func (g *Group) Size() int { return len(g.Nodes) }

// NodeOf maps a rank to its network address.
func (g *Group) NodeOf(rank int) int {
	if rank < 0 || rank >= len(g.Nodes) {
		panic(fmt.Sprintf("core: rank %d outside group of %d", rank, len(g.Nodes)))
	}
	return g.Nodes[rank]
}

// RankOf maps a network address back to its rank, with ok=false for
// non-members.
func (g *Group) RankOf(node int) (int, bool) {
	ix := &g.index
	ix.once.Do(func() {
		ix.rankOf = make(map[int]int, len(g.Nodes))
		for r, n := range g.Nodes {
			ix.rankOf[n] = r
		}
	})
	r, ok := ix.rankOf[node]
	return r, ok
}
