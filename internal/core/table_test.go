package core

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"nicbarrier/internal/sim"
)

func TestTableClaim(t *testing.T) {
	var tb Table[string]
	if err := tb.Claim(7, "a", 2); err != nil {
		t.Fatal(err)
	}
	if v, ok := tb.Get(7); !ok || v != "a" {
		t.Fatalf("Get(7) = %q, %v", v, ok)
	}
	if _, ok := tb.Get(8); ok {
		t.Fatal("Get found a group never claimed")
	}
	err := tb.Claim(7, "b", 2)
	if err == nil || errors.Is(err, ErrSlotsExhausted) {
		t.Fatalf("duplicate claim: %v, want a non-exhaustion error", err)
	}
	if v, _ := tb.Get(7); v != "a" {
		t.Fatalf("duplicate claim replaced the entry with %q", v)
	}
	if err := tb.Claim(8, "c", 2); err != nil {
		t.Fatal(err)
	}
	err = tb.Claim(9, "d", 2)
	if !errors.Is(err, ErrSlotsExhausted) {
		t.Fatalf("claim on a full table: %v, want ErrSlotsExhausted", err)
	}
	if err := tb.Check(9, 3); err != nil {
		t.Fatalf("check against a larger capacity: %v", err)
	}
	if tb.Len() != 2 {
		t.Fatalf("Len = %d after two claims", tb.Len())
	}
}

func TestTableReleaseAndRevive(t *testing.T) {
	var tb Table[int]
	if tb.Release(3, 0, 10) {
		t.Fatal("released a group never claimed")
	}
	if tb.Retired(3) {
		t.Fatal("unknown release left a tombstone")
	}
	if err := tb.Claim(3, 30, 4); err != nil {
		t.Fatal(err)
	}
	if tb.Retired(3) {
		t.Fatal("live group reads retired")
	}
	if !tb.Release(3, 5, 10) {
		t.Fatal("release of a claimed group failed")
	}
	if _, ok := tb.Get(3); ok || !tb.Retired(3) || tb.Len() != 0 {
		t.Fatalf("after release: live=%v retired=%v len=%d", ok, tb.Retired(3), tb.Len())
	}
	if tb.Release(3, 6, 10) {
		t.Fatal("released a group twice")
	}
	if err := tb.Claim(3, 31, 4); err != nil {
		t.Fatalf("reclaiming a released ID: %v", err)
	}
	if v, ok := tb.Get(3); !ok || v != 31 || tb.Retired(3) {
		t.Fatalf("after revive: %d %v retired=%v", v, ok, tb.Retired(3))
	}
}

// Tombstones are swept only once a release leaves more than 64 of them,
// and a sweep drops only those older than the horizon.
func TestTableTombstoneSweep(t *testing.T) {
	const horizon = sim.Duration(100)
	var tb Table[int]
	release := func(id GroupID, at sim.Time) {
		t.Helper()
		if err := tb.Claim(id, int(id), 1); err != nil {
			t.Fatal(err)
		}
		if !tb.Release(id, at, horizon) {
			t.Fatalf("release of group %d failed", id)
		}
	}
	// 32 old tombstones at time 0, 32 recent ones at time 150.
	for id := GroupID(0); id < 32; id++ {
		release(id, 0)
	}
	for id := GroupID(32); id < 64; id++ {
		release(id, 150)
	}
	// Far past the horizon, but at 64 tombstones nothing is swept.
	for id := GroupID(0); id < 64; id++ {
		if !tb.Retired(id) {
			t.Fatalf("group %d swept at 64 tombstones", id)
		}
	}
	// The 65th sweeps at time 200: the time-0 ones are older than the
	// horizon, the time-150 ones are not.
	release(64, 200)
	for id := GroupID(0); id <= 64; id++ {
		if want := id >= 32; tb.Retired(id) != want {
			t.Fatalf("group %d retired = %v after the sweep, want %v", id, !want, want)
		}
	}
	// A tombstone exactly at the horizon stays.
	for id := GroupID(65); id < 98; id++ {
		release(id, 250)
	}
	for id := GroupID(32); id < 64; id++ {
		if !tb.Retired(id) {
			t.Fatalf("group %d, released exactly one horizon ago, swept", id)
		}
	}
}

func TestBindings(t *testing.T) {
	var b Bindings[string]
	if !b.Bind(1, "x") || !b.Bind(2, "y") {
		t.Fatal("fresh binds refused")
	}
	if b.Bind(1, "z") {
		t.Fatal("duplicate bind accepted")
	}
	if h, ok := b.Get(1); !ok || h != "x" {
		t.Fatalf("Get(1) = %q, %v", h, ok)
	}
	if b.Unbind(3) {
		t.Fatal("unbound group unbound")
	}
	if !b.Unbind(1) || b.Unbind(1) {
		t.Fatal("unbind of a bound group must succeed once")
	}
	if _, ok := b.Get(1); ok || b.Len() != 1 {
		t.Fatalf("after unbind: bound=%v len=%d", ok, b.Len())
	}
}

// The hot-path reads — a table lookup, the stale-arrival tombstone
// check and a host binding lookup — allocate nothing, and neither does
// a release/reclaim cycle once the table and its tombstones have grown.
func TestTableZeroAlloc(t *testing.T) {
	var tb Table[*int]
	var b Bindings[fmt.Stringer]
	for id := GroupID(0); id < 8; id++ {
		v := int(id)
		if err := tb.Claim(id, &v, 16); err != nil {
			t.Fatal(err)
		}
		b.Bind(id, sim.Time(id))
	}
	tb.Release(3, 0, 10)
	tb.Claim(3, nil, 16)
	var sink int
	allocs := testing.AllocsPerRun(1000, func() {
		for id := GroupID(0); id < 10; id++ {
			if _, ok := tb.Get(id); ok {
				sink++
			}
			if tb.Retired(id) {
				sink++
			}
			if _, ok := b.Get(id); ok {
				sink++
			}
		}
		tb.Release(3, 0, 10)
		tb.Claim(3, nil, 16)
	})
	if allocs != 0 {
		t.Fatalf("table reads allocate %.1f objects per round, want 0", allocs)
	}
	_ = sink
}

// runTableScript drives a Table[int] of capacity 4 through script, two
// bytes per step, against a reference of a claim-ordered slice and a
// tombstone map, comparing every lookup, the length, each claim's
// error class, and every ID's tombstone after each claim and release.
// Steps: claim ID b; release the live entry b%len (b < 128) or ID b;
// look up ID b; advance the clock by b. IDs span 256 values, so tombstones pass the
// sweep length and sweeps run.
func runTableScript(script []byte) error {
	const (
		capacity = 4
		horizon  = sim.Duration(300)
	)
	type refEntry struct {
		id GroupID
		v  int
	}
	var (
		tb      Table[int]
		live    []refEntry
		retired = map[GroupID]sim.Time{}
		now     sim.Time
	)
	find := func(id GroupID) int {
		return slices.IndexFunc(live, func(e refEntry) bool { return e.id == id })
	}
	for step := 0; step+1 < len(script); step += 2 {
		op, b := script[step]%4, script[step+1]
		id := GroupID(b)
		switch op {
		case 0:
			err := tb.Claim(id, step, capacity)
			want := "ok"
			switch {
			case find(id) >= 0:
				want = "duplicate"
			case len(live) >= capacity:
				want = "exhausted"
			default:
				live = append(live, refEntry{id, step})
				delete(retired, id)
			}
			got := "ok"
			switch {
			case errors.Is(err, ErrSlotsExhausted):
				got = "exhausted"
			case err != nil:
				got = "duplicate"
			}
			if got != want {
				return fmt.Errorf("step %d: claim %d: %s (%v), want %s", step, id, got, err, want)
			}
		case 1:
			if b < 128 && len(live) > 0 {
				id = live[int(b)%len(live)].id
			}
			i := find(id)
			if got := tb.Release(id, now, horizon); got != (i >= 0) {
				return fmt.Errorf("step %d: release %d = %v, want %v", step, id, got, i >= 0)
			}
			if i >= 0 {
				live = slices.Delete(live, i, i+1)
				retired[id] = now
				if len(retired) > 64 {
					for old, at := range retired {
						if now.Sub(at) > horizon {
							delete(retired, old)
						}
					}
				}
			}
		case 2:
			v, ok := tb.Get(id)
			i := find(id)
			if ok != (i >= 0) || ok && v != live[i].v {
				return fmt.Errorf("step %d: Get(%d) = %d, %v; reference %v", step, id, v, ok, live)
			}
		case 3:
			now = now.Add(sim.Duration(b))
		}
		if tb.Len() != len(live) {
			return fmt.Errorf("step %d: Len = %d, want %d", step, tb.Len(), len(live))
		}
		if op >= 2 {
			continue // lookups and the clock change no tombstone
		}
		for x := 0; x < 256; x++ {
			_, want := retired[GroupID(x)]
			if tb.Retired(GroupID(x)) != want {
				return fmt.Errorf("step %d: Retired(%d) = %v, want %v", step, x, !want, want)
			}
		}
	}
	return nil
}

// FuzzGroupTable runs random claim/release/lookup/advance scripts on a
// Table against the reference in runTableScript (seed corpus in
// testdata/fuzz/FuzzGroupTable).
func FuzzGroupTable(f *testing.F) {
	f.Fuzz(func(t *testing.T, script []byte) {
		if err := runTableScript(script); err != nil {
			t.Fatal(err)
		}
	})
}

// ReserveTables gives every full table room for more entries, twice its
// length or one, keeps its entries, clears the array it left, and
// carves all the new room from one allocation; a table with room is
// left alone. A carve is capacity-bounded, so claiming past it moves
// that table alone and leaves its neighbour's entries intact.
func TestReserveTables(t *testing.T) {
	tables := make([]Table[int], 4)
	for i := range tables[:3] {
		if err := tables[i].Claim(GroupID(i+1), 10*(i+1), 8); err != nil {
			t.Fatal(err)
		}
	}
	tables[2].Release(3, 0, 1) // empty, with room for one
	left := tables[0].entries
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ReserveTables(len(tables), func(i int) *Table[int] { return &tables[i] })
	runtime.ReadMemStats(&m1)
	if n := m1.Mallocs - m0.Mallocs; n != 1 {
		t.Fatalf("reserving room in %d tables took %d allocations, want 1", len(tables), n)
	}
	for i, want := range []int{2, 2, 1, 1} {
		if c := cap(tables[i].entries); c != want {
			t.Fatalf("table %d has room for %d entries, want %d", i, c, want)
		}
	}
	if left[0] != (entry[int]{}) {
		t.Fatalf("the array table 0 left still holds %+v", left[0])
	}
	for i := range 2 {
		if v, ok := tables[i].Get(GroupID(i + 1)); !ok || v != 10*(i+1) {
			t.Fatalf("table %d lost its entry: %d, %v", i, v, ok)
		}
	}
	// Table 0 is full again after one claim; a second claim must not
	// spill into table 1's carve.
	for _, id := range []GroupID{5, 6, 7} {
		if err := tables[0].Claim(id, int(id), 8); err != nil {
			t.Fatal(err)
		}
	}
	if v, ok := tables[1].Get(2); !ok || v != 20 || tables[1].Len() != 1 {
		t.Fatalf("a claim on table 0 overwrote table 1: %d, %v, %d entries", v, ok, tables[1].Len())
	}
}
