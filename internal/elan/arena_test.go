package elan

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"nicbarrier/internal/barrier"
	"nicbarrier/internal/core"
	"nicbarrier/internal/hwprofile"
	"nicbarrier/internal/sim"
)

// Reinstalling a chained or gsync session after Close on the same
// cluster costs the same allocations at any group size: the chain tables
// and host bindings reuse the room the closed session left, and the
// session's members, state machines and group are a fixed number of
// allocations.
func TestReinstallAllocsConstant(t *testing.T) {
	for _, scheme := range []Scheme{SchemeChained, SchemeGsync} {
		var got []float64
		for _, n := range []int{8, 4096} {
			eng := sim.NewEngine()
			cl := NewCluster(eng, hwprofile.Elan3Cluster(), n)
			nodes := identity(n)
			cycle := func() {
				NewSession(cl, nodes, scheme, barrier.Dissemination, barrier.Options{}).Close()
				eng.Run() // the disarm charges
			}
			cycle()
			got = append(got, testing.AllocsPerRun(5, cycle))
		}
		if got[0] != got[1] {
			t.Errorf("%v: reinstall costs %.0f allocations at n=8 but %.0f at n=4096", scheme, got[0], got[1])
		}
	}
}

// A closed session's members are garbage while its cluster lives on
// and its caller keeps the session for its results: no chain slot, host
// binding, event hook or engine slot still points into the member
// slice. The finalizer sits on the session's group, which only the
// members hold: the member slice itself is in a cycle with the session,
// and the runtime never finalizes an object in a cycle.
func TestClosedSessionReleasesArena(t *testing.T) {
	const n = 16
	for _, scheme := range []Scheme{SchemeChained, SchemeGsync, SchemeHW} {
		cl := NewCluster(sim.NewEngine(), hwprofile.Elan3Cluster(), n)
		var freed atomic.Bool
		s := NewSession(cl, identity(n), scheme, barrier.Dissemination, barrier.Options{})
		runtime.SetFinalizer(s.members[0].group, func(*core.Group) { freed.Store(true) })
		s.Run(5)
		s.Close()
		for i := 0; i < 50 && !freed.Load(); i++ {
			runtime.GC()
			time.Sleep(time.Millisecond)
		}
		if !freed.Load() {
			t.Errorf("%v: closed session's members still reachable", scheme)
		}
		runtime.KeepAlive(s)
		runtime.KeepAlive(cl)
	}
}
