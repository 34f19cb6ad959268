// Package nicbarrier is a reproduction of "Efficient and Scalable Barrier
// over Quadrics and Myrinet with a New NIC-Based Collective Message
// Passing Protocol" (Yu, Buntinas, Graham, Panda — IPPS 2004) as a
// software-simulated system: the interconnects the paper ran on (Quadrics
// QsNet/Elan3 and Myrinet/LANai) no longer exist, so this library models
// them with a deterministic discrete-event simulation at the level the
// paper's results depend on — NIC firmware handler costs, PCI/PCI-X bus
// transactions, cut-through switching and wire latencies.
//
// The facade in this package is the supported public API: one-shot
// barrier/broadcast measurements over a chosen interconnect and scheme,
// the paper's experiment suite (figures 5-8, the headline summary, and
// two ablations), and the analytical scalability model. The internal
// packages expose the full substrates for advanced use.
//
// A minimal measurement:
//
//	res, err := nicbarrier.MeasureBarrier(nicbarrier.Config{
//		Interconnect: nicbarrier.MyrinetLANaiXP,
//		Nodes:        8,
//		Scheme:       nicbarrier.NICCollective,
//		Algorithm:    nicbarrier.Dissemination,
//	}, 100, 10000)
//
// reproduces the paper's 14.20us headline number.
package nicbarrier

import (
	"fmt"

	"nicbarrier/internal/barrier"
	"nicbarrier/internal/core"
	"nicbarrier/internal/harness"
	"nicbarrier/internal/hwprofile"
	"nicbarrier/internal/model"
	"nicbarrier/internal/sim"
)

// Interconnect selects one of the paper's three testbeds.
type Interconnect int

// The paper's testbeds.
const (
	// MyrinetLANai91: 16-node quad 700 MHz PIII, LANai 9.1 (133 MHz),
	// 66 MHz/64-bit PCI (Fig. 5).
	MyrinetLANai91 Interconnect = iota
	// MyrinetLANaiXP: 8-node dual 2.4 GHz Xeon, LANai-XP (225 MHz),
	// PCI-X (Fig. 6).
	MyrinetLANaiXP
	// QuadricsElan3: 8-node 700 MHz PIII, Elan3 QM-400 on an Elite
	// quaternary fat tree (Fig. 7).
	QuadricsElan3
)

// testbed maps ic onto hwprofile's testbeds, which share its
// numbering; an unknown interconnect stays unknown, and Config
// validation rejects it.
func (ic Interconnect) testbed() hwprofile.Testbed { return hwprofile.Testbed(ic) }

// String implements fmt.Stringer.
func (ic Interconnect) String() string { return ic.testbed().String() }

// Scheme selects the barrier implementation.
type Scheme int

// Barrier schemes across both interconnects.
const (
	// HostBased drives every step from the host over p2p messaging
	// (GM-style on Myrinet, host-driven gather-broadcast tree on
	// Quadrics, where it corresponds to elan_gsync).
	HostBased Scheme = iota
	// NICDirect is the earlier NIC-based scheme layered on the p2p
	// protocol (Myrinet only).
	NICDirect
	// NICCollective is the paper's protocol: on Myrinet the collective
	// MCP module, on Quadrics the chained-RDMA descriptor list.
	NICCollective
	// HardwareBroadcast is elan_hgsync (Quadrics only).
	HardwareBroadcast
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case HostBased:
		return "host-based"
	case NICDirect:
		return "nic-direct"
	case NICCollective:
		return "nic-collective"
	case HardwareBroadcast:
		return "hardware-broadcast"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Algorithm selects the barrier algorithm.
type Algorithm int

// The paper's Section 5 algorithms.
const (
	Dissemination Algorithm = iota
	PairwiseExchange
	GatherBroadcast
)

// String implements fmt.Stringer.
func (a Algorithm) String() string { return a.internal().String() }

func (a Algorithm) internal() barrier.Algorithm {
	switch a {
	case Dissemination:
		return barrier.Dissemination
	case PairwiseExchange:
		return barrier.PairwiseExchange
	case GatherBroadcast:
		return barrier.GatherBroadcast
	default:
		panic(fmt.Sprintf("nicbarrier: unknown algorithm %d", int(a)))
	}
}

// Config describes one measurement setup.
type Config struct {
	Interconnect Interconnect
	// Nodes is the number of barrier participants. Clusters are sized
	// to the testbed (16, 8, up to 1024 for scalability studies).
	Nodes     int
	Scheme    Scheme
	Algorithm Algorithm
	// TreeDegree is the gather-broadcast arity (0: the default of 4).
	TreeDegree int
	// LossRate injects random packet loss (Myrinet only; Quadrics is
	// hardware-reliable). It is shorthand for a leading
	// FaultRandomLoss(LossRate) in Faults: both spellings compile into
	// the same fault plan and give the same run, bit for bit. Recovery
	// traffic shows up in Result.
	LossRate float64
	// Faults composes richer impairments — burst loss, partitions,
	// latency/jitter, throttling, crashes — built with the Fault*
	// constructors. On Quadrics only latency-type faults take effect
	// (hardware reliability strips loss-type ones).
	Faults []Fault
	// Seed drives node permutation and every fault's randomness
	// (LossRate included); 0 is a valid seed.
	Seed uint64
	// Permute randomizes which physical nodes host the ranks, as the
	// paper's methodology does.
	Permute bool
	// Admission configures what happens when a group install meets a
	// full NIC (queue, re-place, or error) and whether install costs are
	// charged on the simulated timeline; the zero value errors on
	// exhaustion with free setup-phase installs, the historical behavior.
	Admission AdmissionConfig
	// Trace, when non-nil, attaches an observability scope to every
	// cluster built from this Config: packet-lifecycle records, NIC
	// firmware events, per-op spans and latency-decomposition metrics,
	// exportable as a Chrome trace (see NewTrace). Tracing never alters
	// the simulated timeline; results stay bit-identical.
	Trace *Trace
}

// Result summarizes one measurement.
type Result struct {
	// Latency statistics over the measured iterations, microseconds.
	MeanMicros, MinMicros, MaxMicros, StdMicros float64
	Iterations                                  int
	// PacketsPerBarrier is the wire traffic per operation (all kinds).
	PacketsPerBarrier float64
	// Retransmissions counts recovery packets over the whole run (loss
	// injection only).
	Retransmissions uint64
	// DroppedPackets counts packets the network discarded over the whole
	// run (the fault plan's discards, LossRate included, at injection or
	// mid-route).
	DroppedPackets uint64
	// Drops breaks DroppedPackets down by where in the packet lifecycle
	// the loss happened, plus the NIC-level stale-duplicate count.
	Drops DropBreakdown
}

// DropBreakdown classifies lost traffic. Injected and MidRoute
// partition the wire drops (Injected + MidRoute = DroppedPackets);
// Rejected classifies, by cause, the subset refused by a crashed or
// rejecting port (at injection or mid-route). Stale counts NIC-level
// discards of late duplicates — packets that were delivered by the wire
// but addressed an operation already complete or a group already torn
// down — and is not part of DroppedPackets.
type DropBreakdown struct {
	Injected uint64 // lost entering the source link (LossRate, inject-time drop faults)
	MidRoute uint64 // worms killed at an intermediate hop
	Rejected uint64 // refused by a crashed/rejecting port (subset, by cause)
	Stale    uint64 // NIC-discarded late duplicates (delivered, then ignored)
}

// checkInterconnect rejects an interconnect that names none of the
// paper's testbeds.
func checkInterconnect(ic Interconnect) error {
	if ic < MyrinetLANai91 || ic > QuadricsElan3 {
		return fmt.Errorf("nicbarrier: unknown interconnect %d", int(ic))
	}
	return nil
}

func (c Config) validate() error {
	if c.Nodes < 1 {
		return fmt.Errorf("nicbarrier: Nodes = %d", c.Nodes)
	}
	if c.TreeDegree < 0 || c.TreeDegree == 1 {
		return fmt.Errorf("nicbarrier: TreeDegree = %d (0 for the default, else at least 2)", c.TreeDegree)
	}
	if err := checkInterconnect(c.Interconnect); err != nil {
		return err
	}
	quadrics := c.Interconnect == QuadricsElan3
	if c.Scheme == HardwareBroadcast && !quadrics {
		return fmt.Errorf("nicbarrier: hardware broadcast barrier needs Quadrics")
	}
	if c.Scheme == NICDirect && quadrics {
		return fmt.Errorf("nicbarrier: the direct scheme is a Myrinet baseline")
	}
	if quadrics && c.LossRate > 0 {
		return fmt.Errorf("nicbarrier: Quadrics provides hardware reliability; no loss injection")
	}
	if c.LossRate != 0 {
		if err := FaultRandomLoss(c.LossRate).validate(); err != nil {
			return fmt.Errorf("nicbarrier: LossRate: %w", err)
		}
	}
	for i, f := range c.Faults {
		if err := f.validate(); err != nil {
			return fmt.Errorf("nicbarrier: Faults[%d]: %w", i, err)
		}
	}
	return nil
}

// faults is the one fault list a run compiles: LossRate, when set, as a
// leading FaultRandomLoss, then Faults in order.
func (c Config) faults() []Fault {
	if c.LossRate == 0 {
		return c.Faults
	}
	return append([]Fault{FaultRandomLoss(c.LossRate)}, c.Faults...)
}

func (c Config) ids() []int {
	if !c.Permute {
		ids := make([]int, c.Nodes)
		for i := range ids {
			ids[i] = i
		}
		return ids
	}
	return sim.NewRNG(c.Seed ^ 0xbadc0ffee).Perm(c.Nodes)
}

// MeasureBarrier runs warmup+iters consecutive barriers under cfg and
// returns latency statistics, mirroring the paper's measurement loop. It
// is a thin wrapper over a single-group Cluster: one fresh cluster, one
// group spanning cfg.Nodes, one run — bit-identical to the historical
// one-shot path.
func MeasureBarrier(cfg Config, warmup, iters int) (Result, error) {
	return measureOnce(cfg, func(g *Group) (Result, error) { return g.Barrier(warmup, iters) })
}

// measureOnce builds a fresh cluster from cfg, declares one group over
// all its nodes (in cfg's rank placement) and measures run on it.
func measureOnce(cfg Config, run func(*Group) (Result, error)) (Result, error) {
	c, err := NewCluster(cfg)
	if err != nil {
		return Result{}, err
	}
	g, err := c.NewGroup(cfg.ids())
	if err != nil {
		return Result{}, err
	}
	return run(g)
}

// MeasureBroadcast runs the NIC-based broadcast extension on a Myrinet
// cluster: the root's notification fans down a degree-ary tree entirely
// on the NICs. Like MeasureBarrier, it is a thin wrapper over a
// single-group Cluster.
func MeasureBroadcast(cfg Config, root, degree, warmup, iters int) (Result, error) {
	return measureOnce(cfg, func(g *Group) (Result, error) { return g.Broadcast(root, degree, warmup, iters) })
}

// ReduceOperator selects the combining operator of a NIC-based allreduce.
type ReduceOperator int

// Allreduce operators.
const (
	Sum ReduceOperator = iota
	Min
	Max
)

// internal maps op onto core's operators, which share its numbering; an
// unknown operator stays unknown, and group validation rejects it.
func (op ReduceOperator) internal() core.ReduceOp { return core.ReduceOp(op) }

// String implements fmt.Stringer.
func (op ReduceOperator) String() string { return op.internal().String() }

// MeasureAllreduce runs a NIC-based single-word allreduce over the
// collective protocol (the future-work extension of the paper's Section
// 9) on a Myrinet cluster, self-checking every iteration's result against
// the reference reduction. It fails for operator/algorithm combinations
// that cannot be exact (sum over non-power-of-two dissemination). Like
// MeasureBarrier, it is a thin wrapper over a single-group Cluster.
func MeasureAllreduce(cfg Config, op ReduceOperator, warmup, iters int) (Result, error) {
	return measureOnce(cfg, func(g *Group) (Result, error) { return g.Allreduce(op, warmup, iters) })
}

// Fidelity selects how closely the experiment loop follows the paper.
type Fidelity int

// Fidelity levels.
const (
	// Quick uses small iteration counts (seconds per experiment).
	Quick Fidelity = iota
	// PaperFidelity uses 100 warmup + 10,000 measured iterations as in
	// Section 8 (scaled down automatically above 64 nodes).
	PaperFidelity
)

// Experiments lists the runnable experiment IDs in registry order: the
// paper's figures and tables (fig5 … fig8b, summary, ablation, packets)
// followed by the reproduction's own sweeps (skew, the faults and
// recovery families, the multi-tenant, churn and reconfiguration
// workloads, shard-scale); barrier-bench -list prints each with its
// title.
func Experiments() []string { return harness.Experiments() }

// config maps f onto the harness's measurement loop, rejecting an
// unknown fidelity.
func (f Fidelity) config() (harness.Config, error) {
	switch f {
	case Quick:
		return harness.Quick(), nil
	case PaperFidelity:
		return harness.PaperFidelity(), nil
	default:
		return harness.Config{}, fmt.Errorf("nicbarrier: unknown fidelity %d", int(f))
	}
}

// RunExperiment regenerates one paper artifact and returns its rendered
// table.
func RunExperiment(id string, f Fidelity) (string, error) {
	cfg, err := f.config()
	if err != nil {
		return "", err
	}
	return harness.Run(id, cfg)
}

// ScalabilityModel holds fitted analytical-model parameters
// (microseconds), per Section 8.3.
type ScalabilityModel struct {
	Tinit, Ttrig, Tadj float64
	// Equation is the model in the paper's notation.
	Equation string
}

// Predict evaluates the model at n nodes.
func (m ScalabilityModel) Predict(n int) float64 {
	return model.Model{Tinit: m.Tinit, Ttrig: m.Ttrig, Tadj: m.Tadj}.Predict(n)
}

// FitScalabilityModel measures the NIC-based dissemination barrier at
// power-of-two sizes up to maxNodes and fits the paper's analytical
// model to the results, as fig8a and fig8b do.
func FitScalabilityModel(ic Interconnect, maxNodes int, f Fidelity) (ScalabilityModel, error) {
	if maxNodes < 4 {
		return ScalabilityModel{}, fmt.Errorf("nicbarrier: need maxNodes >= 4, got %d", maxNodes)
	}
	cfg, err := f.config()
	if err != nil {
		return ScalabilityModel{}, err
	}
	if err := checkInterconnect(ic); err != nil {
		return ScalabilityModel{}, err
	}
	fit, err := harness.FitScalability(cfg, ic.testbed(), maxNodes)
	if err != nil {
		return ScalabilityModel{}, err
	}
	m := fit.Model
	return ScalabilityModel{Tinit: m.Tinit, Ttrig: m.Ttrig, Tadj: m.Tadj, Equation: m.String()}, nil
}

// PaperModel returns the paper's published model for an interconnect
// (Section 8.3); MyrinetLANai91 has no published model and returns ok
// false.
func PaperModel(ic Interconnect) (ScalabilityModel, bool) {
	switch ic {
	case MyrinetLANaiXP:
		m := model.PaperMyrinetXP()
		return ScalabilityModel{Tinit: m.Tinit, Ttrig: m.Ttrig, Tadj: m.Tadj, Equation: m.String()}, true
	case QuadricsElan3:
		m := model.PaperQuadrics()
		return ScalabilityModel{Tinit: m.Tinit, Ttrig: m.Ttrig, Tadj: m.Tadj, Equation: m.String()}, true
	default:
		return ScalabilityModel{}, false
	}
}
