// Package model implements the paper's analytical barrier-latency model
// (Section 8.3):
//
//	T_barrier = T_init + (⌈log2 N⌉ − 1) · T_trig + T_adj
//
// where T_init is the two-node barrier latency (each NIC only sends the
// initial message), T_trig is the cost of each further NIC-triggered
// message, and T_adj is an adjustment for secondary effects (PCI traffic,
// bookkeeping). The paper derives, for its two testbeds:
//
//	Myrinet (LANai-XP, 2.4 GHz Xeon): T = 3.60 + (⌈log2 N⌉−1)·3.50 + 3.84
//	Quadrics (Elan3, 700 MHz PIII):   T = 2.25 + (⌈log2 N⌉−1)·2.32 − 1.00
//
// predicting 38.94 us and 22.13 us respectively on 1024 nodes. Fit
// recovers model parameters from measured sweeps by least squares so the
// simulation's own model can be compared against the paper's.
package model

import (
	"fmt"
	"math"

	"nicbarrier/internal/barrier"
)

// Model holds the three parameters, in microseconds.
type Model struct {
	Tinit float64
	Ttrig float64
	Tadj  float64
}

// PaperMyrinetXP is the paper's fitted model for the 2.4 GHz Xeon /
// LANai-XP cluster.
func PaperMyrinetXP() Model { return Model{Tinit: 3.60, Ttrig: 3.50, Tadj: 3.84} }

// PaperQuadrics is the paper's fitted model for the 700 MHz / Elan3
// cluster.
func PaperQuadrics() Model { return Model{Tinit: 2.25, Ttrig: 2.32, Tadj: -1.00} }

// Predict evaluates the model at n nodes, in microseconds.
func (m Model) Predict(n int) float64 {
	if n < 1 {
		panic(fmt.Sprintf("model: predict for %d nodes", n))
	}
	if n == 1 {
		return 0
	}
	steps := barrier.Log2Ceil(n)
	return m.Tinit + float64(steps-1)*m.Ttrig + m.Tadj
}

// String renders the model in the paper's notation.
func (m Model) String() string {
	sign := "+"
	adj := m.Tadj
	if adj < 0 {
		sign = "-"
		adj = -adj
	}
	return fmt.Sprintf("T = %.2f + (ceil(log2 N)-1)*%.2f %s %.2f", m.Tinit, m.Ttrig, sign, adj)
}

// Fit recovers model parameters from measured (nodes, latency-us) pairs
// by ordinary least squares over x = ⌈log2 N⌉ − 1. The slope becomes
// Ttrig. Following the paper, Tinit is the measured two-node latency when
// an n=2 point is present (T(2) = Tinit + Tadj by definition, and the
// paper defines Tinit as the measured two-node latency, folding the rest
// into Tadj); without an n=2 point the intercept is assigned to Tinit and
// Tadj is zero.
func Fit(ns []int, latencies []float64) (Model, error) {
	if len(ns) != len(latencies) {
		return Model{}, fmt.Errorf("model: %d sizes vs %d latencies", len(ns), len(latencies))
	}
	if len(ns) < 2 {
		return Model{}, fmt.Errorf("model: need at least two points, got %d", len(ns))
	}
	var sx, sy, sxx, sxy float64
	twoNode := math.NaN()
	distinct := map[int]bool{}
	for i, n := range ns {
		if n < 2 {
			return Model{}, fmt.Errorf("model: cannot fit point at n=%d", n)
		}
		x := float64(barrier.Log2Ceil(n) - 1)
		y := latencies[i]
		distinct[barrier.Log2Ceil(n)] = true
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
		if n == 2 {
			twoNode = y
		}
	}
	if len(distinct) < 2 {
		return Model{}, fmt.Errorf("model: all points share one log2 bucket; slope undetermined")
	}
	k := float64(len(ns))
	den := k*sxx - sx*sx
	slope := (k*sxy - sx*sy) / den
	intercept := (sy - slope*sx) / k
	m := Model{Ttrig: slope}
	if !math.IsNaN(twoNode) {
		m.Tinit = twoNode
		m.Tadj = intercept - twoNode
	} else {
		m.Tinit = intercept
	}
	return m, nil
}

// MaxRelativeError reports the worst |predicted−measured|/measured over
// the points, a fit-quality summary.
func (m Model) MaxRelativeError(ns []int, latencies []float64) float64 {
	worst := 0.0
	for i, n := range ns {
		if latencies[i] == 0 {
			continue
		}
		rel := math.Abs(m.Predict(n)-latencies[i]) / latencies[i]
		if rel > worst {
			worst = rel
		}
	}
	return worst
}
