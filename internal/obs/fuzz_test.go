package obs

import (
	"encoding/json"
	"os"
	"testing"
)

// FuzzValidateSnapshotJSON fuzzes the /snapshot schema check: it never
// panics, and a document it accepts still validates, with the same
// scope count, after a round trip through the SnapshotDoc wire type.
// The seeds are the golden snapshot cmd/tracecheck validates and a
// live snapshot of a traced registry scenario (faults-impair's chaos
// workload, with tenant-bound groups and injected drops).
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
