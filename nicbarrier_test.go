package nicbarrier

import (
	"math"
	"strings"
	"testing"
)

func TestMeasureBarrierHeadlines(t *testing.T) {
	// Paper headline: 14.20us on the 8-node LANai-XP cluster.
	res, err := MeasureBarrier(Config{
		Interconnect: MyrinetLANaiXP,
		Nodes:        8,
		Scheme:       NICCollective,
		Algorithm:    Dissemination,
		Permute:      true,
	}, 10, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanMicros < 12.1 || res.MeanMicros > 16.3 {
		t.Errorf("XP collective@8 = %.2fus, want ~14.20", res.MeanMicros)
	}
	if res.Iterations != 100 || res.Retransmissions != 0 {
		t.Errorf("result bookkeeping: %+v", res)
	}
	if res.MinMicros <= 0 || res.MaxMicros < res.MinMicros {
		t.Errorf("stats inconsistent: %+v", res)
	}

	// Paper headline: 5.60us on the 8-node Quadrics cluster.
	res, err = MeasureBarrier(Config{
		Interconnect: QuadricsElan3,
		Nodes:        8,
		Scheme:       NICCollective,
		Algorithm:    Dissemination,
	}, 10, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanMicros < 4.76 || res.MeanMicros > 6.44 {
		t.Errorf("Quadrics chained@8 = %.2fus, want ~5.60", res.MeanMicros)
	}
}

func TestMeasureBarrierAllCombos(t *testing.T) {
	combos := []Config{
		{Interconnect: MyrinetLANai91, Nodes: 5, Scheme: HostBased, Algorithm: PairwiseExchange},
		{Interconnect: MyrinetLANai91, Nodes: 6, Scheme: NICDirect, Algorithm: Dissemination},
		{Interconnect: MyrinetLANaiXP, Nodes: 7, Scheme: NICCollective, Algorithm: GatherBroadcast, TreeDegree: 2},
		{Interconnect: QuadricsElan3, Nodes: 6, Scheme: HostBased, Algorithm: GatherBroadcast},
		{Interconnect: QuadricsElan3, Nodes: 6, Scheme: HardwareBroadcast, Algorithm: Dissemination},
		{Interconnect: QuadricsElan3, Nodes: 6, Scheme: NICCollective, Algorithm: PairwiseExchange},
	}
	for _, cfg := range combos {
		res, err := MeasureBarrier(cfg, 3, 20)
		if err != nil {
			t.Fatalf("%v/%v: %v", cfg.Interconnect, cfg.Scheme, err)
		}
		if res.MeanMicros <= 0 {
			t.Fatalf("%v/%v: non-positive latency", cfg.Interconnect, cfg.Scheme)
		}
	}
}

func TestMeasureBarrierWithLoss(t *testing.T) {
	res, err := MeasureBarrier(Config{
		Interconnect: MyrinetLANaiXP,
		Nodes:        6,
		Scheme:       NICCollective,
		Algorithm:    Dissemination,
		LossRate:     0.05,
		Seed:         3,
	}, 2, 40)
	if err != nil {
		t.Fatal(err)
	}
	if res.Retransmissions == 0 {
		t.Error("5% loss produced no retransmissions")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Interconnect: MyrinetLANaiXP, Nodes: 0},
		{Interconnect: MyrinetLANaiXP, Nodes: 4, LossRate: 1.5},
		{Interconnect: MyrinetLANaiXP, Nodes: 4, LossRate: -0.1},
		{Interconnect: MyrinetLANaiXP, Nodes: 4, LossRate: math.NaN()},
		{Interconnect: MyrinetLANaiXP, Nodes: 4, Scheme: HardwareBroadcast},
		{Interconnect: QuadricsElan3, Nodes: 4, Scheme: NICDirect},
		{Interconnect: QuadricsElan3, Nodes: 4, LossRate: 0.1},
		{Interconnect: Interconnect(7), Nodes: 4},
	}
	for i, cfg := range bad {
		if _, err := MeasureBarrier(cfg, 1, 5); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := FitScalabilityModel(Interconnect(7), 8, Quick); err == nil {
		t.Error("unknown interconnect accepted by FitScalabilityModel")
	}
	ok := Config{Interconnect: MyrinetLANaiXP, Nodes: 2}
	if _, err := MeasureBarrier(ok, -1, 5); err == nil {
		t.Error("negative warmup accepted")
	}
	if _, err := MeasureBarrier(ok, 0, 0); err == nil {
		t.Error("zero iterations accepted")
	}
}

func TestMeasureBroadcast(t *testing.T) {
	cfg := Config{Interconnect: MyrinetLANaiXP, Nodes: 8}
	res, err := MeasureBroadcast(cfg, 0, 4, 2, 20)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanMicros <= 0 {
		t.Fatal("broadcast latency non-positive")
	}
	// 7 notifications per broadcast, nothing else.
	if res.PacketsPerBarrier < 6.9 || res.PacketsPerBarrier > 7.1 {
		t.Errorf("packets/broadcast = %v, want 7", res.PacketsPerBarrier)
	}
	if _, err := MeasureBroadcast(Config{Interconnect: QuadricsElan3, Nodes: 4}, 0, 2, 1, 5); err == nil {
		t.Error("broadcast on Quadrics accepted")
	}
	if _, err := MeasureBroadcast(cfg, 9, 4, 1, 5); err == nil {
		t.Error("out-of-range root accepted")
	}
}

func TestRunExperimentFacade(t *testing.T) {
	if len(Experiments()) != 24 {
		t.Fatalf("experiments: %v", Experiments())
	}
	out, err := RunExperiment("packets", Quick)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Collective") {
		t.Fatalf("experiment output: %s", out)
	}
	if _, err := RunExperiment("nope", Quick); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestFitScalabilityModelFacade(t *testing.T) {
	m, err := FitScalabilityModel(QuadricsElan3, 64, Quick)
	if err != nil {
		t.Fatal(err)
	}
	if m.Ttrig < 1.4 || m.Ttrig > 2.9 {
		t.Errorf("fitted Quadrics Ttrig = %.2f, want ~2.32 band", m.Ttrig)
	}
	if !strings.Contains(m.Equation, "ceil(log2 N)") {
		t.Errorf("equation: %q", m.Equation)
	}
	if p1024 := m.Predict(1024); p1024 < 14 || p1024 > 28 {
		t.Errorf("extrapolation to 1024 = %.2f", p1024)
	}
	if _, err := FitScalabilityModel(QuadricsElan3, 2, Quick); err == nil {
		t.Error("maxNodes=2 accepted")
	}
}

// A Fidelity outside Quick and PaperFidelity is an error, not a silent
// quick run.
func TestUnknownFidelityRejected(t *testing.T) {
	if _, err := RunExperiment("fig6", Fidelity(7)); err == nil {
		t.Error("RunExperiment accepted Fidelity(7)")
	}
	if _, err := FitScalabilityModel(QuadricsElan3, 8, Fidelity(-1)); err == nil {
		t.Error("FitScalabilityModel accepted Fidelity(-1)")
	}
}

// HostBased on Quadrics is elan_gsync, a gather-broadcast tree whatever
// the configured algorithm: a dissemination and a gather-broadcast
// configuration run the same tree and give the same Result.
func TestQuadricsHostBasedIsGsyncTree(t *testing.T) {
	for _, degree := range []int{0, 2} {
		cfg := Config{Interconnect: QuadricsElan3, Nodes: 7, Scheme: HostBased,
			TreeDegree: degree, Permute: true, Seed: 3}
		cfg.Algorithm = Dissemination
		ds, err := MeasureBarrier(cfg, 5, 40)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Algorithm = GatherBroadcast
		gb, err := MeasureBarrier(cfg, 5, 40)
		if err != nil {
			t.Fatal(err)
		}
		if ds != gb {
			t.Errorf("degree %d: DS %+v != GB %+v", degree, ds, gb)
		}
	}
}

func TestPaperModel(t *testing.T) {
	m, ok := PaperModel(QuadricsElan3)
	if !ok || m.Predict(1024) < 22.12 || m.Predict(1024) > 22.14 {
		t.Fatalf("paper Quadrics model: %+v ok=%v", m, ok)
	}
	m, ok = PaperModel(MyrinetLANaiXP)
	if !ok || m.Predict(1024) < 38.93 || m.Predict(1024) > 38.95 {
		t.Fatalf("paper Myrinet model: %+v ok=%v", m, ok)
	}
	if _, ok := PaperModel(MyrinetLANai91); ok {
		t.Fatal("LANai 9.1 has no published model")
	}
}

func TestStringers(t *testing.T) {
	cases := map[string]string{
		MyrinetLANai91.String():    "myrinet-lanai9.1",
		MyrinetLANaiXP.String():    "myrinet-lanai-xp",
		QuadricsElan3.String():     "quadrics-elan3",
		HostBased.String():         "host-based",
		NICDirect.String():         "nic-direct",
		NICCollective.String():     "nic-collective",
		HardwareBroadcast.String(): "hardware-broadcast",
		Dissemination.String():     "DS",
		PairwiseExchange.String():  "PE",
		GatherBroadcast.String():   "GB",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("stringer: got %q want %q", got, want)
		}
	}
}

func TestMeasureAllreduce(t *testing.T) {
	cfg := Config{
		Interconnect: MyrinetLANaiXP,
		Nodes:        8,
		Algorithm:    PairwiseExchange,
		Permute:      true,
	}
	res, err := MeasureAllreduce(cfg, Sum, 3, 40)
	if err != nil {
		t.Fatal(err)
	}
	// The operand rides the barrier's static packet: near latency parity.
	bres, err := MeasureBarrier(Config{
		Interconnect: MyrinetLANaiXP, Nodes: 8,
		Scheme: NICCollective, Algorithm: PairwiseExchange, Permute: true,
	}, 3, 40)
	if err != nil {
		t.Fatal(err)
	}
	ratio := res.MeanMicros / bres.MeanMicros
	if ratio < 0.95 || ratio > 1.10 {
		t.Errorf("allreduce %.2fus vs barrier %.2fus", res.MeanMicros, bres.MeanMicros)
	}
	// Self-check happens inside; exercise min/max and loss too.
	if _, err := MeasureAllreduce(cfg, Min, 1, 10); err != nil {
		t.Fatal(err)
	}
	lossy := cfg
	lossy.LossRate = 0.05
	lossy.Seed = 5
	res, err = MeasureAllreduce(lossy, Sum, 1, 30)
	if err != nil {
		t.Fatal(err)
	}
	if res.Retransmissions == 0 {
		t.Error("no retransmissions under loss")
	}
	// Invalid combination: sum over non-power-of-two dissemination.
	bad := Config{Interconnect: MyrinetLANaiXP, Nodes: 6, Algorithm: Dissemination}
	if _, err := MeasureAllreduce(bad, Sum, 1, 5); err == nil {
		t.Error("sum over DS n=6 accepted")
	}
	// Quadrics unsupported.
	if _, err := MeasureAllreduce(Config{Interconnect: QuadricsElan3, Nodes: 4}, Sum, 1, 5); err == nil {
		t.Error("allreduce on Quadrics accepted")
	}
	if Sum.String() != "sum" || Min.String() != "min" || Max.String() != "max" {
		t.Error("operator stringers wrong")
	}
}
