package harness

import (
	"nicbarrier/internal/comm"
	"nicbarrier/internal/elan"
	"nicbarrier/internal/fault"
	"nicbarrier/internal/hwprofile"
	"nicbarrier/internal/myrinet"
	"nicbarrier/internal/obs"
	"nicbarrier/internal/sim"
)

// Every data point of every scenario builds its simulated cluster
// through the constructors below, so every scenario honours cfg.Trace
// the same way: one scope per cluster, installed as the engine's
// observer (which drives the metronome of live-served runs) and as the
// cluster's tracer, and handed to the comm layer when the point runs
// groups, so per-op spans and tenant metrics appear too.

// point is one data point's engine and its trace scope (nil when the
// config is untraced).
type point struct {
	eng *sim.Engine
	sc  *obs.Scope
}

func (c Config) newPoint(label string) point {
	p := point{eng: sim.NewEngine()}
	if c.Trace != nil {
		p.sc = c.Trace.NewScope(label)
		p.eng.SetObserver(p.sc)
	}
	return p
}

// commCluster builds one data point's communicator layer over a fresh
// n-node cluster, Myrinet with profile myri or Quadrics/Elan3 when myri
// is nil, with plan (nil: fault-free) installed.
func (c Config) commCluster(myri *hwprofile.MyrinetProfile, n int, label string, plan *fault.Plan) (*comm.Cluster, point) {
	var cc *comm.Cluster
	var p point
	if myri == nil {
		p = c.newPoint("elan " + label)
		cl := elan.NewCluster(p.eng, hwprofile.Elan3Cluster(), n)
		if plan != nil {
			cl.SetFaults(plan)
		}
		cc = comm.OverElan(cl)
	} else {
		p = c.newPoint("myrinet " + label)
		cl := myrinet.NewCluster(p.eng, *myri, n, nil)
		if plan != nil {
			cl.SetFaults(plan)
		}
		cc = comm.OverMyrinet(cl)
	}
	if p.sc != nil {
		cc.SetTracer(p.sc)
	}
	return cc, p
}

// xpUnless is the cluster of a point that runs LANai-XP on Myrinet:
// its profile, or nil (Quadrics/Elan3) when quadrics.
func xpUnless(quadrics bool) *hwprofile.MyrinetProfile {
	if quadrics {
		return nil
	}
	prof := hwprofile.LANaiXPCluster()
	return &prof
}

// drained publishes the point's final live snapshot once its run has
// drained, so a live-served run ends on its completed state rather than
// on the last metronome tick. Untraced and unarmed points are no-ops.
func (p point) drained() {
	if p.sc != nil {
		p.sc.PublishFinal(p.eng.Now())
	}
}
