package myrinet

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"nicbarrier/internal/barrier"
	"nicbarrier/internal/core"
	"nicbarrier/internal/netsim"
	"nicbarrier/internal/sim"
)

// arenaKinds builds the three collective session kinds over nodes.
var arenaKinds = []struct {
	name  string
	build func(cl *Cluster, nodes []int) *Session
}{
	{"barrier", func(cl *Cluster, nodes []int) *Session {
		return NewSession(cl, nodes, SchemeCollective, barrier.Dissemination, barrier.Options{})
	}},
	{"broadcast", func(cl *Cluster, nodes []int) *Session {
		return NewBroadcastSession(cl, nodes, 0, barrier.DefaultTreeDegree)
	}},
	{"allreduce", func(cl *Cluster, nodes []int) *Session {
		s, err := NewAllreduceSession(cl, nodes, barrier.PairwiseExchange, barrier.Options{}, core.ReduceSum, contribFn)
		if err != nil {
			panic(err)
		}
		return s
	}},
}

// Reinstalling a session after Close on the same cluster costs the same
// allocations at any group size: the NIC group tables and host bindings
// reuse the room the closed session left, and the session's members,
// state machines and group are a fixed number of allocations.
func TestReinstallAllocsConstant(t *testing.T) {
	for _, k := range arenaKinds {
		var got []float64
		for _, n := range []int{8, 4096} {
			eng, cl := xpCluster(n, nil)
			nodes := identity(n)
			cycle := func() {
				k.build(cl, nodes).Close()
				eng.Run() // the uninstall charges
			}
			cycle()
			got = append(got, testing.AllocsPerRun(5, cycle))
		}
		if got[0] != got[1] {
			t.Errorf("%s: reinstall costs %.0f allocations at n=8 but %.0f at n=4096", k.name, got[0], got[1])
		}
	}
}

// A closed session's members are garbage while its cluster lives on
// and its caller keeps the session for its results, as the communicator
// layer does: no group-table slot, host binding, NACK timer or engine
// slot still points into the member slice, even with cancelled NACK
// timers left queued (the engine is not drained after Close). The
// finalizer sits on the session's group, which only the members' NIC
// entries hold: the member slice itself is in a cycle with the session,
// and the runtime never finalizes an object in a cycle.
func TestClosedSessionReleasesArena(t *testing.T) {
	const n = 16
	for _, k := range arenaKinds {
		_, cl := xpCluster(n, &netsim.RandomLoss{Rate: 0.05, RNG: sim.NewRNG(3)})
		var freed atomic.Bool
		s := k.build(cl, identity(n))
		runtime.SetFinalizer(s.members[0].group, func(*core.Group) { freed.Store(true) })
		s.Run(5)
		s.Close()
		for i := 0; i < 50 && !freed.Load(); i++ {
			runtime.GC()
			time.Sleep(time.Millisecond)
		}
		if !freed.Load() {
			t.Errorf("%s: closed session's members still reachable", k.name)
		}
		runtime.KeepAlive(s)
		runtime.KeepAlive(cl)
	}
}
