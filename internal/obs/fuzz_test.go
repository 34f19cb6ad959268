package obs

import (
	"encoding/json"
	"os"
	"testing"

	"nicbarrier/internal/sim"
)

// FuzzValidateSnapshotJSON fuzzes the /snapshot schema check: it never
// panics, and a document it accepts still validates, with the same
// scope count, after a round trip through the SnapshotDoc wire type.
// The seeds are the golden snapshot cmd/tracecheck validates, a live
// snapshot of a traced registry scenario (faults-impair's chaos
// workload, with tenant-bound groups and injected drops), and a doc
// whose two scopes each bind tenant 0.
func FuzzValidateSnapshotJSON(f *testing.F) {
	for _, path := range []string{
		"../../cmd/tracecheck/testdata/snapshot.json",
		"testdata/registry-snapshot.json",
	} {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	tr := NewTracer()
	for _, name := range []string{"a", "b"} {
		sc := tr.NewScope(name)
		sc.BindGroupTenant(1, 0)
		sc.OpSpan(1, "barrier", 0, 0, sim.Time(sim.Microsecond))
	}
	two, err := json.Marshal(NewSnapshotDoc(tr.Snapshot()))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(two)
	f.Fuzz(func(t *testing.T, data []byte) {
		scopes, err := ValidateSnapshotJSON(data)
		if err != nil {
			return
		}
		var doc SnapshotDoc
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatalf("accepted document does not unmarshal: %v", err)
		}
		again, err := json.Marshal(doc)
		if err != nil {
			t.Fatalf("accepted document does not marshal: %v", err)
		}
		got, err := ValidateSnapshotJSON(again)
		if err != nil {
			t.Fatalf("round trip rejected: %v\n%s", err, again)
		}
		if got != scopes {
			t.Fatalf("round trip has %d scopes, want %d", got, scopes)
		}
	})
}
