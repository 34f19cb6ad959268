package nicbarrier

import (
	"strings"
	"testing"
)

func TestConfigFaultsLossRecovery(t *testing.T) {
	res, err := MeasureBarrier(Config{
		Interconnect: MyrinetLANaiXP,
		Nodes:        16,
		Scheme:       NICCollective,
		Algorithm:    Dissemination,
		Faults:       []Fault{FaultRandomLoss(0.20)},
		Seed:         3,
	}, 2, 30)
	if err != nil {
		t.Fatal(err)
	}
	if res.DroppedPackets == 0 {
		t.Fatal("loss fault dropped nothing")
	}
	if res.Retransmissions == 0 {
		t.Fatal("no recovery retransmissions under 20% loss")
	}
}

// LossRate is shorthand for a leading FaultRandomLoss: both spellings
// compile into the same plan, so drops, retransmissions and latencies
// match exactly, with or without further faults behind the loss rule.
// (The host and direct schemes are left out: under this much loss they
// hang on the GM duplicate-ACK livelock whichever spelling is used.)
func TestLossRateIsLeadingRandomLossFault(t *testing.T) {
	for _, extra := range [][]Fault{nil, {FaultDelay(1, 2), FaultEveryNth(7)}} {
		base := Config{Interconnect: MyrinetLANaiXP, Nodes: 8, Scheme: NICCollective, Algorithm: Dissemination, Seed: 11}
		short, long := base, base
		short.LossRate, short.Faults = 0.1, extra
		long.Faults = append([]Fault{FaultRandomLoss(0.1)}, extra...)
		a, err := MeasureBarrier(short, 2, 40)
		if err != nil {
			t.Fatal(err)
		}
		b, err := MeasureBarrier(long, 2, 40)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("%d extra faults: LossRate run %+v, Faults run %+v", len(extra), a, b)
		}
		if a.Drops.Injected == 0 || a.Retransmissions == 0 {
			t.Errorf("%d extra faults: no loss or no recovery: %+v", len(extra), a)
		}
	}
}

func TestQuadricsUnaffectedByLossOnlyFaults(t *testing.T) {
	base := Config{
		Interconnect: QuadricsElan3,
		Nodes:        8,
		Scheme:       NICCollective,
		Algorithm:    Dissemination,
		Seed:         3,
	}
	clean, err := MeasureBarrier(base, 2, 30)
	if err != nil {
		t.Fatal(err)
	}
	lossy := base
	// Link-loss faults only: fail-stop crashes are NOT link loss and DO
	// reach Quadrics (see TestQuadricsCrashDropsRDMAs in internal/fault).
	lossy.Faults = []Fault{FaultRandomLoss(0.30), FaultEveryNth(2)}
	faulted, err := MeasureBarrier(lossy, 2, 30)
	if err != nil {
		t.Fatal(err)
	}
	if clean.MeanMicros != faulted.MeanMicros || faulted.DroppedPackets != 0 {
		t.Fatalf("hardware reliability violated: clean %v vs faulted %v (%d drops)",
			clean.MeanMicros, faulted.MeanMicros, faulted.DroppedPackets)
	}
	// Latency-type faults DO apply on Quadrics.
	slow := base
	slow.Faults = []Fault{FaultDelay(5, 0)}
	delayed, err := MeasureBarrier(slow, 2, 30)
	if err != nil {
		t.Fatal(err)
	}
	if delayed.MeanMicros <= clean.MeanMicros+4 {
		t.Fatalf("delay fault inert on Quadrics: clean %v vs delayed %v",
			clean.MeanMicros, delayed.MeanMicros)
	}
}

func TestZeroFaultRejected(t *testing.T) {
	_, err := MeasureBarrier(Config{
		Interconnect: MyrinetLANaiXP,
		Nodes:        4,
		Scheme:       NICCollective,
		Algorithm:    Dissemination,
		Faults:       []Fault{{}},
	}, 0, 1)
	if err == nil || !strings.Contains(err.Error(), "zero Fault") {
		t.Fatalf("zero Fault not rejected: %v", err)
	}
}

// Total loss would starve the recovery traffic and hang the simulation;
// negative delays would corrupt the virtual clock. Both must be rejected
// up front, like Config.LossRate is.
func TestDegenerateFaultParamsRejected(t *testing.T) {
	base := Config{
		Interconnect: MyrinetLANaiXP,
		Nodes:        4,
		Scheme:       NICCollective,
		Algorithm:    Dissemination,
	}
	for name, faults := range map[string][]Fault{
		"total loss":        {FaultRandomLoss(1.0)},
		"negative loss":     {FaultRandomLoss(-0.1)},
		"every-1st (total)": {FaultEveryNth(1)},
		"every-0th (inert)": {FaultEveryNth(0)},
		"negative every-N":  {FaultEveryNth(-3)},
		"burst rate 1.0":    {FaultBurstLoss(1.0, 4)},
		"burst length 0.5":  {FaultBurstLoss(0.05, 0.5)},
		"unreachable burst": {FaultBurstLoss(0.6, 1)},
		"empty window":      {FaultPartition(3, 7).Between(200, 50)},
		"negative delay":    {FaultDelay(-5, 0)},
		"zero throttle":     {FaultThrottle(0)},
		"negative throttle": {FaultThrottle(-10)},
	} {
		cfg := base
		cfg.Faults = faults
		if _, err := MeasureBarrier(cfg, 0, 1); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// Unbounded blocking faults must be flagged: without an op deadline a
// barrier spanning them never completes, and the warning is the only
// up-front signal a caller gets.
func TestValidateFaults(t *testing.T) {
	warns := ValidateFaults([]Fault{FaultCrash(3), FaultPartition(1, 2)})
	if len(warns) != 2 {
		t.Fatalf("warnings = %v, want one per unbounded blocking fault", warns)
	}
	for _, w := range warns {
		if !strings.Contains(w, "blocks forever") {
			t.Fatalf("warning %q does not name the hazard", w)
		}
	}
	benign := []Fault{FaultCrash(3).Between(0, 300), FaultRandomLoss(0.1), {}}
	if warns := ValidateFaults(benign); len(warns) != 0 {
		t.Fatalf("bounded or non-blocking faults flagged: %v", warns)
	}
}

func TestFaultModifiersAndSeedDeterminism(t *testing.T) {
	cfg := Config{
		Interconnect: MyrinetLANaiXP,
		Nodes:        8,
		Scheme:       NICCollective,
		Algorithm:    Dissemination,
		Faults: []Fault{
			FaultRandomLoss(0.10).OnKinds("barrier-coll").Named("coll-only"),
			FaultSlowNIC(0, 2),
		},
		Seed: 11,
	}
	a, err := MeasureBarrier(cfg, 2, 20)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MeasureBarrier(cfg, 2, 20)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("faulted runs not reproducible: %+v vs %+v", a, b)
	}
	if got := cfg.Faults[0].String(); !strings.Contains(got, "coll-only") {
		t.Fatalf("Fault.String() = %q", got)
	}
}

// Fault values must be reusable: running the same Config twice (or
// sharing Faults across Configs) must not leak effect state between runs.
func TestFaultValuesAreReusable(t *testing.T) {
	shared := FaultEveryNth(2)
	cfg := Config{
		Interconnect: MyrinetLANaiXP,
		Nodes:        4,
		Scheme:       NICCollective,
		Algorithm:    Dissemination,
		Faults:       []Fault{shared},
		Seed:         5,
	}
	a, err := MeasureBarrier(cfg, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MeasureBarrier(cfg, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("shared Fault leaked state across runs: %+v vs %+v", a, b)
	}
}
