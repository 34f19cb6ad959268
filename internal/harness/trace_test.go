package harness

import (
	"encoding/json"
	"reflect"
	"testing"

	"nicbarrier/internal/obs"
	"nicbarrier/internal/sim"
)

// hostUnits are the units of host-side measurements (wall clock,
// measured speedup, heap footprint): they differ between any two runs,
// so neutrality is asserted on every other metric.
var hostUnits = map[string]bool{"ns/op": true, "speedup": true, "B/ep": true}

func simulatedPoints(pts []NamedValue) []NamedValue {
	var out []NamedValue
	for _, p := range pts {
		if !hostUnits[p.Unit] {
			out = append(out, p)
		}
	}
	return out
}

// Tracing is observational for every registered scenario: a run with a
// metronome-armed tracer yields exactly the points of an untraced run,
// records at least one scope, and publishes a live snapshot that passes
// the schema check — the contract barrier-bench -trace and simserve
// rely on. shard-scale is exempt: its shards are built inside
// internal/shard, which takes no tracer.
func TestTraceNeutralityAcrossRegistry(t *testing.T) {
	cfg := Config{Warmup: 1, Iters: 2, Seed: 1, Permute: true, Parallel: true}
	for _, s := range Scenarios() {
		if s.ID == "shard-scale" {
			continue
		}
		t.Run(s.ID, func(t *testing.T) {
			plain := simulatedPoints(s.Points(cfg))
			tr := obs.NewTracerSize(64)
			tr.SetMetronome(sim.Micros(50))
			traced := cfg
			traced.Trace = tr
			if got := simulatedPoints(s.Points(traced)); !reflect.DeepEqual(got, plain) {
				t.Fatalf("traced points differ:\n got %v\nwant %v", got, plain)
			}
			if len(tr.Scopes()) == 0 {
				t.Fatal("traced run recorded no scope")
			}
			live := tr.LiveSnapshot()
			if len(live.Scopes) == 0 {
				t.Fatal("metronome-armed run published no live snapshot")
			}
			doc, err := json.Marshal(obs.NewSnapshotDoc(live))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := obs.ValidateSnapshotJSON(doc); err != nil {
				t.Fatalf("live snapshot invalid: %v", err)
			}
		})
	}
}
