package nicbarrier

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"nicbarrier/internal/obs"
)

func faultCfg(nodes int, faults ...Fault) Config {
	cfg := xpConfig(nodes)
	cfg.Faults = faults
	cfg.Permute = true
	return cfg
}

// The full trace pipeline, end to end: attach a Trace, run a workload,
// and the export must validate against the Chrome trace-event schema
// while the result carries a populated latency decomposition.
func TestTraceEndToEnd(t *testing.T) {
	tr := NewTrace()
	cfg := xpConfig(16)
	cfg.Trace = tr
	res, err := MeasureWorkload(cfg, WorkloadSpec{Tenants: 4, OpsPerTenant: 10})
	if err != nil {
		t.Fatalf("MeasureWorkload: %v", err)
	}
	if len(res.Decomp) != 1 || res.Decomp[0].Operation != "barrier" {
		t.Fatalf("decomposition = %+v, want one barrier row", res.Decomp)
	}
	d := res.Decomp[0]
	if d.Ops != 40 || d.NICMicros <= 0 {
		t.Fatalf("decomposition row underpopulated: %+v", d)
	}

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	n, err := obs.ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("exported trace does not validate: %v", err)
	}
	if n == 0 {
		t.Fatal("exported trace is empty")
	}
	if table := tr.DecompositionTable(); !strings.Contains(table, "barrier") {
		t.Fatalf("decomposition table missing the barrier row:\n%s", table)
	}
}

// Tracing is observational only: an identical barrier measurement with
// a Trace attached must report bit-identical virtual-time results.
func TestTraceNeutrality(t *testing.T) {
	plain, err := MeasureBarrier(faultCfg(16, FaultRandomLoss(0.05)), 5, 40)
	if err != nil {
		t.Fatalf("plain MeasureBarrier: %v", err)
	}
	cfg := faultCfg(16, FaultRandomLoss(0.05))
	cfg.Trace = NewTrace()
	traced, err := MeasureBarrier(cfg, 5, 40)
	if err != nil {
		t.Fatalf("traced MeasureBarrier: %v", err)
	}
	if traced.MeanMicros != plain.MeanMicros || traced.MaxMicros != plain.MaxMicros ||
		traced.DroppedPackets != plain.DroppedPackets {
		t.Fatalf("tracing changed results: mean %.4f/%.4f max %.4f/%.4f drops %d/%d",
			traced.MeanMicros, plain.MeanMicros, traced.MaxMicros, plain.MaxMicros,
			traced.DroppedPackets, plain.DroppedPackets)
	}
}

// A traced barrier measurement spans every op it runs, like a driven
// workload: without warmup, the decomposition table counts exactly the
// measured iterations.
func TestTracedMeasureBarrierCountsOps(t *testing.T) {
	tr := NewTrace()
	cfg := xpConfig(8)
	cfg.Trace = tr
	res, err := MeasureBarrier(cfg, 0, 20)
	if err != nil {
		t.Fatalf("MeasureBarrier: %v", err)
	}
	table := tr.DecompositionTable()
	for _, line := range strings.Split(table, "\n") {
		if f := strings.Fields(line); len(f) > 1 && f[0] == "barrier" {
			if f[1] != strconv.Itoa(res.Iterations) {
				t.Fatalf("decomposition counts %s barrier ops, want %d:\n%s", f[1], res.Iterations, table)
			}
			return
		}
	}
	t.Fatalf("decomposition table has no barrier row:\n%s", table)
}

// Result.Drops partitions every discard by cause: injection-time loss
// vs mid-route kills (which together account for DroppedPackets), the
// rejected subset, and NIC-level stale duplicates on top.
func TestDropBreakdown(t *testing.T) {
	clean, err := MeasureBarrier(xpConfig(16), 5, 40)
	if err != nil {
		t.Fatalf("clean: %v", err)
	}
	if clean.Drops != (DropBreakdown{}) {
		t.Fatalf("clean run reports drops: %+v", clean.Drops)
	}

	lossy, err := MeasureBarrier(faultCfg(16, FaultRandomLoss(0.10)), 5, 40)
	if err != nil {
		t.Fatalf("lossy: %v", err)
	}
	if lossy.Drops.Injected == 0 {
		t.Fatal("random loss recorded no injection-time drops")
	}
	if lossy.Drops.MidRoute != 0 {
		t.Fatalf("random loss recorded %d mid-route drops, want 0", lossy.Drops.MidRoute)
	}
	if got := lossy.Drops.Injected + lossy.Drops.MidRoute; got != lossy.DroppedPackets {
		t.Fatalf("injected %d + mid-route %d != %d total drops",
			lossy.Drops.Injected, lossy.Drops.MidRoute, lossy.DroppedPackets)
	}

	part := faultCfg(16, FaultPartition(3, 7).Between(50, 200))
	part.Permute = false // ranks 3 and 7 must really sit on the partitioned nodes
	cut, err := MeasureBarrier(part, 5, 40)
	if err != nil {
		t.Fatalf("partition: %v", err)
	}
	if cut.Drops.MidRoute == 0 {
		t.Fatal("partition recorded no mid-route drops")
	}
	if got := cut.Drops.Injected + cut.Drops.MidRoute; got != cut.DroppedPackets {
		t.Fatalf("injected %d + mid-route %d != %d total drops",
			cut.Drops.Injected, cut.Drops.MidRoute, cut.DroppedPackets)
	}
}

// A churn measurement with reconfiguring tenants surfaces the pre- vs
// post-swap latency percentiles through the public result.
func TestMeasureChurnSwapPercentiles(t *testing.T) {
	res, err := MeasureChurn(xpConfig(16), ChurnSpec{
		Tenants: 12, OpsPerTenant: 8,
		ReconfigureEvery: 2,
		Policy:           AdmitQueue,
	})
	if err != nil {
		t.Fatalf("MeasureChurn: %v", err)
	}
	if res.Reconfigs == 0 {
		t.Fatal("no tenant reconfigured")
	}
	if res.PreSwapOps == 0 || res.PostSwapOps == 0 ||
		res.PreSwapP50Micros <= 0 || res.PostSwapP50Micros <= 0 {
		t.Fatalf("swap percentiles unpopulated: %+v", res)
	}
}
