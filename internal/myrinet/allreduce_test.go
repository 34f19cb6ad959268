package myrinet

import (
	"testing"

	"nicbarrier/internal/barrier"
	"nicbarrier/internal/core"
	"nicbarrier/internal/fault"
	"nicbarrier/internal/hwprofile"
	"nicbarrier/internal/netsim"
	"nicbarrier/internal/sim"
)

func contribFn(rank, iter int) int64 {
	return int64(rank*37 + iter*11 - 50)
}

func expectReduce(op core.ReduceOp, n, iter int) int64 {
	acc := contribFn(0, iter)
	for r := 1; r < n; r++ {
		acc = op.Combine(acc, contribFn(r, iter))
	}
	return acc
}

func runAllreduce(t *testing.T, n int, alg barrier.Algorithm, op core.ReduceOp,
	imp netsim.Impairment, iters int) (*Cluster, [][]int64) {
	t.Helper()
	eng := sim.NewEngine()
	cl := NewCluster(eng, hwprofile.LANaiXPCluster(), n, imp)
	s, err := newAllreduce(cl, identity(n), alg, op, contribFn)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(iters)
	return cl, s.Results()
}

func TestAllreduceOnNIC(t *testing.T) {
	cases := []struct {
		n   int
		alg barrier.Algorithm
		op  core.ReduceOp
	}{
		{8, barrier.PairwiseExchange, core.ReduceSum},
		{6, barrier.PairwiseExchange, core.ReduceSum}, // pre/post fold
		{8, barrier.Dissemination, core.ReduceSum},    // power of two
		{7, barrier.Dissemination, core.ReduceMin},
		{9, barrier.GatherBroadcast, core.ReduceSum},
		{5, barrier.GatherBroadcast, core.ReduceMax},
	}
	for _, c := range cases {
		_, results := runAllreduce(t, c.n, c.alg, c.op, nil, 4)
		for iter, row := range results {
			want := expectReduce(c.op, c.n, iter)
			for rank, got := range row {
				if got != want {
					t.Errorf("%v/%v n=%d iter=%d rank=%d: got %d want %d",
						c.op, c.alg, c.n, iter, rank, got, want)
				}
			}
		}
	}
}

func TestAllreduceInvalidCombination(t *testing.T) {
	eng := sim.NewEngine()
	cl := NewCluster(eng, hwprofile.LANaiXPCluster(), 6, nil)
	_, err := newAllreduce(cl, identity(6), barrier.Dissemination, core.ReduceSum, contribFn)
	if err == nil {
		t.Fatal("sum over DS n=6 accepted")
	}
}

// Lost allreduce messages recover via NACK with the recorded snapshot;
// the results must still be exact (no double combining).
func TestAllreduceLossRecoveryExactness(t *testing.T) {
	for drop := 0; drop < 10; drop++ {
		cl, results := runAllreduce(t, 8, barrier.PairwiseExchange, core.ReduceSum, dropNth("barrier-coll", drop), 3)
		if cl.Stats().CollResent == 0 {
			t.Fatalf("drop %d: no NACK recovery happened", drop)
		}
		for iter, row := range results {
			want := expectReduce(core.ReduceSum, 8, iter)
			for rank, got := range row {
				if got != want {
					t.Fatalf("drop %d iter %d rank %d: got %d want %d (double combine?)",
						drop, iter, rank, got, want)
				}
			}
		}
	}
}

func TestAllreduceRandomLossTorture(t *testing.T) {
	loss := fault.NewPlan(17, fault.Loss(0.1))
	_, results := runAllreduce(t, 8, barrier.PairwiseExchange, core.ReduceSum, loss, 5)
	for iter, row := range results {
		want := expectReduce(core.ReduceSum, 8, iter)
		for rank, got := range row {
			if got != want {
				t.Fatalf("iter %d rank %d: got %d want %d", iter, rank, got, want)
			}
		}
	}
}

// The paper's scalability argument extends to allreduce: latency of the
// NIC allreduce stays within a few percent of the plain barrier (the
// operand rides the same static packet).
func TestAllreduceCostsLikeBarrier(t *testing.T) {
	eng := sim.NewEngine()
	cl := NewCluster(eng, hwprofile.LANaiXPCluster(), 8, nil)
	bs := newSession(cl, identity(8), SchemeCollective, barrier.PairwiseExchange, barrier.Options{})
	barrierLat := core.MeanLatency(bs.Run(5+50), 5)

	eng2 := sim.NewEngine()
	cl2 := NewCluster(eng2, hwprofile.LANaiXPCluster(), 8, nil)
	rs, err := newAllreduce(cl2, identity(8), barrier.PairwiseExchange, core.ReduceSum, contribFn)
	if err != nil {
		t.Fatal(err)
	}
	reduceLat := core.MeanLatency(rs.Run(5+50), 5)

	ratio := float64(reduceLat) / float64(barrierLat)
	if ratio < 0.95 || ratio > 1.10 {
		t.Errorf("allreduce %v vs barrier %v (ratio %.2f), want near parity", reduceLat, barrierLat, ratio)
	}
}
