package shard

import (
	"slices"
	"testing"

	"nicbarrier/internal/hwprofile"
	"nicbarrier/internal/sim"
	"nicbarrier/internal/topo"
)

func TestPlanPartitionProperties(t *testing.T) {
	for _, tc := range []struct{ nodes, parts int }{
		{1, 1}, {7, 3}, {64, 4}, {64, 64}, {65536, 8}, {10, 16},
	} {
		p := newPlan(tc.nodes, tc.parts)
		if p.parts > tc.nodes {
			t.Fatalf("%v: %d parts for %d nodes", tc, p.parts, tc.nodes)
		}
		covered := 0
		for s := 0; s < p.parts; s++ {
			lo, hi := p.bounds(s)
			if hi <= lo {
				t.Fatalf("%v: empty shard %d [%d,%d)", tc, s, lo, hi)
			}
			if lo != covered {
				t.Fatalf("%v: shard %d starts at %d, want %d", tc, s, lo, covered)
			}
			covered = hi
		}
		if covered != tc.nodes {
			t.Fatalf("%v: shards cover %d of %d nodes", tc, covered, tc.nodes)
		}
		// Sizes balanced within one node.
		min, max := tc.nodes, 0
		for s := 0; s < p.parts; s++ {
			if sz := p.size(s); sz < min {
				min = sz
			} else if sz > max {
				max = sz
			}
		}
		if max > 0 && max-min > 1 {
			t.Fatalf("%v: shard sizes range %d..%d", tc, min, max)
		}
	}
}

func TestMinCrossLatencyPositiveAndMonotone(t *testing.T) {
	params := hwprofile.LANaiXPCluster().Net
	ft := topo.MinFatTree(8, 64)
	p := newPlan(64, 4)
	l := minCrossLatency(ft, p, params)
	if l <= 0 {
		t.Fatalf("lookahead %v not positive", l)
	}
	// One wire hop + at least one switch traversal is the floor for any
	// cross-host route.
	if floor := params.WirePerHop; l < floor {
		t.Fatalf("lookahead %v below single-hop floor %v", l, floor)
	}
	if single := minCrossLatency(ft, newPlan(64, 1), params); single != 0 {
		t.Fatalf("single-partition lookahead %v, want 0", single)
	}
}

// TestRunnerDeterministicMerge runs a ping-pong of cross-shard
// messages whose handlers record delivery order, twice, and requires
// identical transcripts: the (From, At, Seq) merge must hide goroutine
// scheduling entirely.
func TestRunnerDeterministicMerge(t *testing.T) {
	transcript := func() [][]msg {
		const parts = 4
		look := sim.Duration(50)
		engines := make([]*sim.Engine, parts)
		for i := range engines {
			engines[i] = sim.NewEngine()
		}
		// Per-shard logs: shards deliver concurrently, so only each
		// shard's own delivery order is a meaningful (and deterministic)
		// transcript.
		logs := make([][]msg, parts)
		var r *runner
		r = newRunner(look, engines, func(s int, m msg) {
			engines[s].Schedule(m.At, func() {
				logs[s] = append(logs[s], m)
				hop := m.Op
				if hop >= 40 { // bounded chain
					return
				}
				// Forward along a hop-dependent path so several chains
				// interleave on each shard's queue.
				d := (s + 1 + hop%(parts-1)) % parts
				if d == s {
					d = (d + 1) % parts
				}
				r.send(s, d, engines[s].Now().Add(look), hop+1)
			})
		})
		// Seed: every shard pings its neighbor.
		for s := 0; s < parts; s++ {
			s := s
			engines[s].Schedule(sim.Time(s), func() {
				r.send(s, (s+1)%parts, engines[s].Now().Add(look), 0)
			})
		}
		r.run(nil)
		return logs
	}
	a, b := transcript(), transcript()
	total := 0
	for s := range a {
		if len(a[s]) != len(b[s]) {
			t.Fatalf("shard %d transcript lengths differ: %d vs %d", s, len(a[s]), len(b[s]))
		}
		total += len(a[s])
		for i := range a[s] {
			if a[s][i] != b[s][i] {
				t.Fatalf("shard %d diverges at %d: %+v vs %+v", s, i, a[s][i], b[s][i])
			}
		}
	}
	if total == 0 {
		t.Fatal("no messages delivered")
	}
}

func TestRunnerLookaheadViolationPanics(t *testing.T) {
	engines := []*sim.Engine{sim.NewEngine(), sim.NewEngine()}
	r := newRunner(100, engines, func(int, msg) {})
	engines[0].Schedule(0, func() {
		defer func() {
			if recover() == nil {
				t.Error("Send inside the window did not panic")
			}
		}()
		// Window is [0, 100); arrival at 50 violates the invariant.
		r.send(0, 1, 50, 0)
	})
	r.run(nil)
}

func TestRunnerWindowJumping(t *testing.T) {
	engines := []*sim.Engine{sim.NewEngine(), sim.NewEngine()}
	r := newRunner(10, engines, func(int, msg) {})
	// Two events a millisecond of virtual time apart: stepping 10 ns
	// windows through the gap would need ~100k windows; jumping needs 2.
	engines[0].Schedule(0, func() {})
	engines[1].Schedule(sim.Time(sim.Micros(1000)), func() {})
	r.run(nil)
	if r.windows > 4 {
		t.Fatalf("executed %d windows, want the idle gap jumped (≤4)", r.windows)
	}
}

func TestHierBarrierDeterministicAcrossRuns(t *testing.T) {
	spec := HierSpec{Nodes: 64, Parts: 4, Warmup: 1, Iters: 3, Prof: hwprofile.LANaiXPCluster()}
	a := MeasureHierBarrier(spec)
	b := MeasureHierBarrier(spec)
	if len(a.DoneAt) != len(b.DoneAt) {
		t.Fatalf("iteration counts differ: %d vs %d", len(a.DoneAt), len(b.DoneAt))
	}
	for i := range a.DoneAt {
		if a.DoneAt[i] != b.DoneAt[i] {
			t.Fatalf("iteration %d completion differs: %v vs %v", i, a.DoneAt[i], b.DoneAt[i])
		}
	}
	if a.Windows != b.Windows || a.Tokens != b.Tokens {
		t.Fatalf("window/token counts differ: %d/%d vs %d/%d", a.Windows, a.Tokens, b.Windows, b.Tokens)
	}
	if a.MeanLatency <= 0 {
		t.Fatalf("mean latency %v not positive", a.MeanLatency)
	}
	wantTokens := uint64(spec.Parts * (spec.Warmup + spec.Iters) * 2) // log2(4) = 2 rounds
	if a.Tokens != wantTokens {
		t.Fatalf("exchanged %d tokens, want %d", a.Tokens, wantTokens)
	}
}

func TestHierBarrierPartsSweepCompletes(t *testing.T) {
	for _, parts := range []int{1, 2, 3, 8} {
		spec := HierSpec{Nodes: 48, Parts: parts, Warmup: 1, Iters: 2, Prof: hwprofile.LANaiXPCluster()}
		res := MeasureHierBarrier(spec)
		if res.MeanLatency <= 0 {
			t.Fatalf("parts=%d: mean latency %v", parts, res.MeanLatency)
		}
		for i := 1; i < len(res.DoneAt); i++ {
			if res.DoneAt[i] <= res.DoneAt[i-1] {
				t.Fatalf("parts=%d: completions not increasing: %v", parts, res.DoneAt)
			}
		}
	}
}

func TestHierBarrierLookaheadFromProfile(t *testing.T) {
	spec := HierSpec{Nodes: 64, Parts: 4, Warmup: 0, Iters: 1, Prof: hwprofile.LANaiXPCluster()}
	res := MeasureHierBarrier(spec)
	net := spec.Prof.Net
	if res.Lookahead < net.WirePerHop {
		t.Fatalf("lookahead %v below a single wire hop %v", res.Lookahead, net.WirePerHop)
	}
	// The lookahead must never exceed any actual token flight time, or
	// Send would panic; completing at all proves it, but pin the bound
	// against the derivation too.
	p := newPlan(spec.Nodes, spec.Parts)
	if probe := minCrossLatency(topo.MinFatTree(8, spec.Nodes), p, net); res.Lookahead > probe {
		t.Fatalf("lookahead %v exceeds topology minimum %v", res.Lookahead, probe)
	}
}

// TestHierBarrierPinnedNonPowerOfTwo pins the exact results of the
// hierarchical barrier for shard counts whose dissemination rounds
// wrap unevenly (1, 3, 5 and 7 shards over 64 LANai-XP endpoints), so
// a change to the cross-shard schedule, its token ordering or the
// runner's windowing shows up as a diff rather than as a plausible new
// latency.
func TestHierBarrierPinnedNonPowerOfTwo(t *testing.T) {
	for _, tc := range []struct {
		parts, warmup   int
		look            sim.Duration
		windows, tokens uint64
		doneAt          []sim.Time
	}{
		{parts: 1, warmup: 0, look: 1000, windows: 106, tokens: 0, doneAt: []sim.Time{51767, 103534, 155301}},
		{parts: 1, warmup: 2, look: 1000, windows: 176, tokens: 0, doneAt: []sim.Time{51767, 103534, 155301, 207068, 258835}},
		{parts: 3, warmup: 0, look: 100, windows: 381, tokens: 18, doneAt: []sim.Time{43356, 86712, 130068}},
		{parts: 3, warmup: 2, look: 100, windows: 635, tokens: 30, doneAt: []sim.Time{43356, 86712, 130068, 173424, 216780}},
		{parts: 5, warmup: 0, look: 100, windows: 254, tokens: 45, doneAt: []sim.Time{35624, 71248, 106872}},
		{parts: 5, warmup: 2, look: 100, windows: 478, tokens: 75, doneAt: []sim.Time{35624, 71248, 106872, 142496, 177838}},
		{parts: 7, warmup: 0, look: 100, windows: 162, tokens: 63, doneAt: []sim.Time{33893, 67786, 101679}},
		{parts: 7, warmup: 2, look: 100, windows: 270, tokens: 105, doneAt: []sim.Time{33893, 67786, 101679, 135572, 169465}},
	} {
		res := MeasureHierBarrier(HierSpec{Nodes: 64, Parts: tc.parts, Warmup: tc.warmup, Iters: 3,
			Prof: hwprofile.LANaiXPCluster()})
		if res.Lookahead != tc.look || res.Windows != tc.windows || res.Tokens != tc.tokens ||
			!slices.Equal(res.DoneAt, tc.doneAt) {
			t.Errorf("parts=%d warmup=%d: lookahead %d windows %d tokens %d doneAt %v; want %d %d %d %v",
				tc.parts, tc.warmup, res.Lookahead, res.Windows, res.Tokens, res.DoneAt,
				tc.look, tc.windows, tc.tokens, tc.doneAt)
		}
	}
}
