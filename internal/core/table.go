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

// Table is a NIC's group table, the per-group entry the paper's protocol
// looks up by group ID: a Myrinet group queue, an Elan chained-descriptor
// list. It holds at most the capacity its caller passes (the NIC's SRAM
// slots) and remembers released IDs as tombstones, keyed to their release
// time, so late traffic for a torn-down group is told apart from traffic
// for a group that never existed. The zero Table is empty.
type Table[T any] struct {
	entries[T]
	retired map[GroupID]sim.Time
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
	delete(t.retired, id)
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
		t.retired = make(map[GroupID]sim.Time)
	}
	t.retired[id] = now
	if len(t.retired) > tombstoneSweepLen {
		for old, at := range t.retired {
			if now.Sub(at) > horizon {
				delete(t.retired, old)
			}
		}
	}
	return true
}

// Retired reports whether group id holds a tombstone: it was released
// and has not been reclaimed or swept since.
func (t *Table[T]) Retired(id GroupID) bool {
	_, gone := t.retired[id]
	return gone
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
