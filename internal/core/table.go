package core

import (
	"fmt"
	"slices"

	"nicbarrier/internal/sim"
)

// entries is a list of values keyed by an inline group ID: a lookup reads
// only the list, which holds one entry per installed group and is
// scanned linearly (a NIC holds a few dozen groups at most).
type entries[T any] []entry[T]

type entry[T any] struct {
	id GroupID
	v  T
}

func (e entries[T]) index(id GroupID) int {
	for i := range e {
		if e[i].id == id {
			return i
		}
	}
	return -1
}

// Get returns group id's value.
func (e entries[T]) Get(id GroupID) (T, bool) {
	if i := e.index(id); i >= 0 {
		return e[i].v, true
	}
	var zero T
	return zero, false
}

// Len reports how many groups hold an entry.
func (e entries[T]) Len() int { return len(e) }

// remove drops group id's entry, reporting whether it had one. The
// backing array is kept, so later entries reuse its room.
func (e *entries[T]) remove(id GroupID) bool {
	i := e.index(id)
	if i < 0 {
		return false
	}
	*e = slices.Delete(*e, i, i+1)
	return true
}

// reserve makes room for one more entry in each of the n lists at
// returns: every full list of k entries moves to a backing array of
// max(2k, 1), as append would grow it, and all those arrays are carved
// from one allocation. A carve is capacity-bounded, so a later append to
// a full list reallocates instead of overwriting its neighbour's carve.
// A list that moves clears the array it leaves, which its neighbours
// may keep alive, so that the array pins none of its values.
func reserve[T any](n int, at func(i int) *entries[T]) {
	need := 0
	for i := range n {
		if e := at(i); len(*e) == cap(*e) {
			need += max(2*len(*e), 1)
		}
	}
	if need == 0 {
		return
	}
	slab := make(entries[T], need)
	for i := range n {
		e := at(i)
		if k := len(*e); k == cap(*e) {
			c := max(2*k, 1)
			grown := slab[:k:c]
			copy(grown, *e)
			clear(*e)
			*e, slab = grown, slab[c:]
		}
	}
}

// ReserveTables makes room for one more entry in each of n group
// tables, table(i) returning the i-th, from one allocation shared by
// all of them. A session installing a group on n NICs calls it before
// claiming, so the install allocates once, not once per NIC.
func ReserveTables[T any](n int, table func(i int) *Table[T]) {
	reserve(n, func(i int) *entries[T] { return &table(i).entries })
}

// ReserveBindings is ReserveTables for n hosts' bindings.
func ReserveBindings[H any](n int, bindings func(i int) *Bindings[H]) {
	reserve(n, func(i int) *entries[H] { return &bindings(i).entries })
}

// Table is a NIC's group table, the per-group entry the paper's protocol
// looks up by group ID: a Myrinet group queue, an Elan chained-descriptor
// list. It holds at most the capacity its caller passes (the NIC's SRAM
// slots) and remembers released IDs as tombstones, keyed to their release
// time, so late traffic for a torn-down group is told apart from traffic
// for a group that never existed. The zero Table is empty.
type Table[T any] struct {
	entries[T]
	// retired holds the tombstones, built on the first release; behind a
	// pointer, a table that never releases pays one word for them.
	retired *tombstones
}

// tombstones is a table's released group IDs with their release times.
// Room for the first eight comes in the same record, so a table that
// releases a few groups allocates once for them.
type tombstones struct {
	list  []tombstone
	first [8]tombstone
}

type tombstone struct {
	id GroupID
	at sim.Time
}

// tombstoneSweepLen bounds the tombstones: a release sweeps them only
// once there are more than this, keeping the common case (few
// concurrent teardowns) sweep-free.
const tombstoneSweepLen = 64

// Check reports whether group id can claim an entry of a table holding
// at most capacity: the ID must not be installed, and a full table
// returns ErrSlotsExhausted itself. Queued admission retries full NICs
// on every departure, so that error allocates nothing: the caller's
// one wrap naming the node is the only cost.
func (t *Table[T]) Check(id GroupID, capacity int) error {
	if t.index(id) >= 0 {
		return fmt.Errorf("group %d already installed", id)
	}
	if len(t.entries) >= capacity {
		return ErrSlotsExhausted
	}
	return nil
}

// Claim installs v as group id's entry after Check, clearing any
// tombstone the ID left: reinstalling a released ID is legal.
func (t *Table[T]) Claim(id GroupID, v T, capacity int) error {
	if err := t.Check(id, capacity); err != nil {
		return err
	}
	if i := t.tombstone(id); i >= 0 {
		t.retired.list = slices.Delete(t.retired.list, i, i+1)
	}
	t.entries = append(t.entries, entry[T]{id, v})
	return nil
}

// Release frees group id's entry and tombstones the ID at now, reporting
// false (and changing nothing) for an ID without an entry. Past
// tombstoneSweepLen tombstones, those older than horizon — the longest
// a packet for a torn-down group can stay in flight — are dropped.
func (t *Table[T]) Release(id GroupID, now sim.Time, horizon sim.Duration) bool {
	if !t.remove(id) {
		return false
	}
	if t.retired == nil {
		t.retired = &tombstones{}
		t.retired.list = t.retired.first[:0]
	}
	// A live ID holds no tombstone (Claim cleared it), so this is the
	// ID's only one.
	r := t.retired
	r.list = append(r.list, tombstone{id, now})
	if len(r.list) > tombstoneSweepLen {
		r.list = slices.DeleteFunc(r.list, func(ts tombstone) bool { return now.Sub(ts.at) > horizon })
	}
	return true
}

// Retired reports whether group id holds a tombstone: it was released
// and has not been reclaimed or swept since. A live group never does,
// so callers look the live entry up first and consult Retired on a miss.
func (t *Table[T]) Retired(id GroupID) bool { return t.tombstone(id) >= 0 }

// tombstone returns the index of group id's tombstone, or -1.
func (t *Table[T]) tombstone(id GroupID) int {
	if t.retired == nil {
		return -1
	}
	return slices.IndexFunc(t.retired.list, func(ts tombstone) bool { return ts.id == id })
}

// Bindings routes a host's group-addressed events: one handler per bound
// group. The zero Bindings is empty.
type Bindings[H any] struct{ entries[H] }

// Bind binds h to group id, reporting false (and changing nothing) when
// the group is already bound.
func (b *Bindings[H]) Bind(id GroupID, h H) bool {
	if b.index(id) >= 0 {
		return false
	}
	b.entries = append(b.entries, entry[H]{id, h})
	return true
}

// Unbind releases group id's binding, reporting false for a group that
// is not bound.
func (b *Bindings[H]) Unbind(id GroupID) bool { return b.remove(id) }
