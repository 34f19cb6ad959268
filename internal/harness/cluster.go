package harness

import (
	"nicbarrier/internal/comm"
	"nicbarrier/internal/fault"
	"nicbarrier/internal/hwprofile"
	"nicbarrier/internal/netsim"
	"nicbarrier/internal/obs"
	"nicbarrier/internal/sim"
)

// Every data point of every scenario builds its simulated cluster
// through commCluster, so every scenario honours cfg.Trace the same
// way: one scope per cluster, installed as the engine's observer (which
// drives the metronome of live-served runs) and as the cluster's
// tracer, so per-op spans and tenant metrics appear too.

// point is one data point's engine and its trace scope (nil when the
// config is untraced).
type point struct {
	eng *sim.Engine
	sc  *obs.Scope
}

// commCluster builds one data point's communicator layer over a fresh
// n-node cluster of testbed tb with plan (nil: fault-free) installed.
func (c Config) commCluster(tb hwprofile.Testbed, n int, label string, plan *fault.Plan) (*comm.Cluster, point) {
	var p point
	if c.Trace != nil {
		prefix := "myrinet "
		if tb == hwprofile.Elan3 {
			prefix = "elan "
		}
		p.sc = c.Trace.NewScope(prefix + label)
	}
	var imp netsim.Impairment
	if plan != nil {
		imp = plan
	}
	cc := comm.NewCluster(tb, n, imp, p.sc)
	p.eng = cc.Eng
	return cc, p
}

// drained publishes the point's final live snapshot once its run has
// drained, so a live-served run ends on its completed state rather than
// on the last metronome tick. Untraced and unarmed points are no-ops.
func (p point) drained() {
	if p.sc != nil {
		p.sc.PublishFinal(p.eng.Now())
	}
}
