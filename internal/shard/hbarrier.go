package shard

import (
	"fmt"
	"runtime"
	"time"

	"nicbarrier/internal/barrier"
	"nicbarrier/internal/core"
	"nicbarrier/internal/hwprofile"
	"nicbarrier/internal/myrinet"
	"nicbarrier/internal/sim"
)

// HierSpec configures a hierarchical cross-shard barrier run: Nodes
// endpoints split across Parts shards, executing Warmup+Iters
// consecutive global barriers under Prof's hardware costs.
type HierSpec struct {
	Nodes  int // total endpoints across all shards (≥ 2·Parts)
	Parts  int // shard count; 1 degenerates to a flat single-shard barrier
	Warmup int // iterations discarded before measuring
	Iters  int // measured iterations (≥ 1)
	Prof   hwprofile.MyrinetProfile
}

// HierResult reports one hierarchical barrier run. All virtual-time
// fields are deterministic per spec; WallTime is the host-side
// duration of the parallel simulation and varies run to run.
type HierResult struct {
	Nodes, Parts int
	Lookahead    sim.Duration // conservative window length used
	Windows      uint64       // lookahead windows executed
	Tokens       uint64       // cross-shard dissemination tokens exchanged
	DoneAt       []sim.Time   // global completion time per iteration
	MeanLatency  sim.Duration // mean per-iteration latency over the measured window
	WallTime     time.Duration
	// MemBytes is the live-heap growth across building and running the
	// whole simulation (topologies, sub-clusters, engines, runner),
	// measured by GC-settled HeapAlloc deltas. Divided by Nodes it is
	// the footprint-per-endpoint figure the shard-scale sweep gates;
	// like WallTime it is a host-side quantity, not virtual time.
	MemBytes uint64
}

const (
	hierGatherGID  = 1 // group ID of the intra-shard gather barrier
	hierReleaseGID = 2 // group ID of the intra-shard release broadcast
)

// hierShard is one shard's slice of the hierarchical barrier: a
// full-fidelity Myrinet sub-cluster running a NIC-collective gather
// barrier and a NIC-based release broadcast, plus this shard's rank of
// the cross-shard dissemination plan, whose tokens travel as runner
// messages.
type hierShard struct {
	h      *hier
	id     int
	eng    *sim.Engine
	gather *myrinet.Session
	bcast  *myrinet.Session
	op     *core.OpState // this shard's rank of the cross-shard plan
	tokens sim.FreeList[hierToken]
	doneAt []sim.Time // release completion per finished iteration
}

// hierToken is one inbound dissemination token, scheduled on its
// destination shard's engine at its arrival time: shard from has
// notified this shard in operation (iteration) seq. Records come from
// the destination's free list, which only its worker touches.
type hierToken struct {
	sh        *hierShard
	seq, from int
}

func (t *hierToken) Fire() {
	sh, seq, from := t.sh, t.seq, t.from
	sh.tokens.Put(t)
	sh.step(sh.op.Arrive(seq, from))
}

type hier struct {
	spec   HierSpec
	plan   plan
	runner *runner
	shards []*hierShard
	cross  [][]sim.Duration // cross[a][b]: token flight time shard a → b
	total  int              // Warmup + Iters
}

// MeasureHierBarrier simulates Warmup+Iters global barriers over
// spec.Nodes endpoints partitioned into spec.Parts shards, each shard
// a full-fidelity Myrinet sub-cluster on its own engine. One global
// barrier is three phases: an intra-shard NIC-collective dissemination
// barrier (the paper's protocol, unchanged), a dissemination
// barrier.Plan over the Parts shard representatives — one
// core.OpState per shard, its tokens carried as cross-shard runner
// messages — and an intra-shard NIC broadcast that releases the local
// ranks. Token flight times come from representative routes on the
// fat-tree topology a flat cluster of spec.Nodes would use, so the
// lookahead derivation (minCrossLatency over the same topology) is
// anchored to the hardware profile rather than invented.
//
// Virtual-time results are deterministic per spec; the shards
// genuinely run in parallel, so WallTime reflects real speedup.
func MeasureHierBarrier(spec HierSpec) HierResult {
	if spec.Parts < 1 || spec.Nodes < 2*spec.Parts {
		panic(fmt.Sprintf("shard: hier barrier needs ≥2 nodes per shard, got %d nodes / %d parts",
			spec.Nodes, spec.Parts))
	}
	if spec.Iters < 1 || spec.Warmup < 0 {
		panic(fmt.Sprintf("shard: hier barrier warmup %d iters %d", spec.Warmup, spec.Iters))
	}
	var m0 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)

	h := &hier{
		spec:  spec,
		plan:  newPlan(spec.Nodes, spec.Parts),
		total: spec.Warmup + spec.Iters,
	}
	look := h.deriveLatencies()

	dissem := barrier.NewPlan(barrier.Dissemination, spec.Parts, barrier.Options{})
	engines := make([]*sim.Engine, spec.Parts)
	for s := 0; s < spec.Parts; s++ {
		engines[s] = sim.NewEngine()
		h.shards = append(h.shards, h.newShard(s, engines[s], dissem))
	}
	h.runner = newRunner(look, engines, h.deliver)

	for _, sh := range h.shards {
		sh.gather.Launch(1)
	}
	start := time.Now()
	h.runner.run(h.done)
	wall := time.Since(start)
	if !h.done() {
		panic(fmt.Sprintf("shard: hier barrier stalled (%d nodes, %d parts)", spec.Nodes, spec.Parts))
	}

	// Live-heap growth across construction + run. GC first so the delta
	// counts what this simulation keeps alive, not garbage from before
	// or during it. h must stay reachable across the GC for the
	// measurement to mean anything; it does — the result is read below.
	var m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m1)
	var memBytes uint64
	if m1.HeapAlloc > m0.HeapAlloc {
		memBytes = m1.HeapAlloc - m0.HeapAlloc
	}

	done := make([]sim.Time, h.total)
	for i := range done {
		for _, sh := range h.shards {
			if sh.doneAt[i] > done[i] {
				done[i] = sh.doneAt[i]
			}
		}
	}
	return HierResult{
		Nodes:       spec.Nodes,
		Parts:       spec.Parts,
		Lookahead:   look,
		Windows:     h.runner.windows,
		Tokens:      h.runner.delivered(),
		DoneAt:      done,
		MeanLatency: core.MeanLatency(done, spec.Warmup),
		WallTime:    wall,
		MemBytes:    memBytes,
	}
}

// deriveLatencies fills the cross-shard token flight matrix and
// returns the conservative lookahead: the smaller of the topology's
// minimum cross-partition head latency and the cheapest token flight,
// so every Send provably lands at or beyond its window's end.
func (h *hier) deriveLatencies() sim.Duration {
	t := myrinet.Topology(h.spec.Nodes)
	params := h.spec.Prof.Net
	tokenWire := sim.BytesAt(8, params.BandwidthMBps)

	h.cross = make([][]sim.Duration, h.plan.parts)
	look := sim.Duration(0)
	if h.plan.parts > 1 {
		look = minCrossLatency(t, h.plan, params)
	}
	for a := 0; a < h.plan.parts; a++ {
		h.cross[a] = make([]sim.Duration, h.plan.parts)
		repA, _ := h.plan.bounds(a)
		for b := 0; b < h.plan.parts; b++ {
			if a == b {
				continue
			}
			repB, _ := h.plan.bounds(b)
			lat := headLatency(t, repA, repB, params) + tokenWire
			h.cross[a][b] = lat
			if lat < look {
				look = lat
			}
		}
	}
	if look <= 0 {
		// Single-partition runs exchange no tokens; any positive window
		// works, and a microsecond keeps the window count low.
		look = sim.Micros(1)
	}
	return look
}

func (h *hier) newShard(id int, eng *sim.Engine, dissem *barrier.Plan) *hierShard {
	size := h.plan.size(id)
	cl := myrinet.NewCluster(eng, h.spec.Prof, size, nil)
	ids := make([]int, size)
	for i := range ids {
		ids[i] = i
	}
	sh := &hierShard{h: h, id: id, eng: eng, op: core.NewOpState(dissem.Rank(id))}
	var err error
	sh.gather, err = myrinet.NewGroupSession(cl, hierGatherGID, ids, myrinet.SchemeCollective,
		barrier.NewPlan(barrier.Dissemination, size, barrier.Options{}), core.Chained, 0, nil)
	if err != nil {
		panic(fmt.Sprintf("shard: gather session: %v", err))
	}
	sh.bcast, err = myrinet.NewGroupSession(cl, hierReleaseGID, ids, myrinet.SchemeCollective,
		barrier.NewBroadcastPlan(size, 0, barrier.DefaultTreeDegree), core.Gated, 0, nil)
	if err != nil {
		panic(fmt.Sprintf("shard: release session: %v", err))
	}
	// Every local rank has entered the barrier: start the cross-shard
	// operation, which replays tokens that ran ahead of the gather.
	sh.gather.OnIterDone = func(int, sim.Time) { sh.step(sh.op.Start(len(sh.doneAt))) }
	sh.bcast.OnIterDone = func(_ int, at sim.Time) { sh.onReleased(at) }
	sh.doneAt = make([]sim.Time, 0, h.total)
	return sh
}

// deliver is the runner's per-message callback: schedule the token on
// the destination shard's engine at its arrival time.
func (h *hier) deliver(shard int, m msg) {
	sh := h.shards[shard]
	tok := sh.tokens.Get()
	*tok = hierToken{sh: sh, seq: m.Op, from: m.From}
	sh.eng.ScheduleEvent(m.At, tok)
}

func (h *hier) done() bool {
	for _, sh := range h.shards {
		if len(sh.doneAt) < h.total {
			return false
		}
	}
	return true
}

// step acts on one cross-shard state transition: each rank the plan
// unblocked gets this shard's token after the representative-route
// flight time — which is ≥ the runner's lookahead by construction —
// and a completed operation releases the local ranks over the NIC
// broadcast tree.
func (sh *hierShard) step(sends []int, completed bool, err error) {
	if err != nil {
		panic(fmt.Sprintf("shard %d: cross-shard barrier: %v", sh.id, err))
	}
	for _, dst := range sends {
		sh.h.runner.send(sh.id, dst, sh.eng.Now().Add(sh.h.cross[sh.id][dst]), sh.op.Seq())
	}
	if completed {
		sh.bcast.Reset()
		sh.bcast.Launch(1)
	}
}

// onReleased fires when the release broadcast has reached every local
// rank: the global barrier iteration is complete on this shard. Start
// the next iteration's gather, with all ranks re-entering at the
// release completion instant.
func (sh *hierShard) onReleased(at sim.Time) {
	sh.doneAt = append(sh.doneAt, at)
	if len(sh.doneAt) < sh.h.total {
		sh.gather.Reset()
		sh.gather.Launch(1)
	}
}
