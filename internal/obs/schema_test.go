package obs

import (
	"encoding/json"
	"strings"
	"testing"

	"nicbarrier/internal/sim"
)

func sampleDoc(t *testing.T) SnapshotDoc {
	t.Helper()
	tr := NewTracer()
	sc := tr.NewScope("cluster 8n")
	sc.BindGroupTenant(1, 0)
	sc.PktInject(0, 0, 1, 1, "data")
	sc.WireTime(1, 3*sim.Microsecond)
	sc.OpSpan(1, "barrier", 0, 0, sim.Time(5*sim.Microsecond))
	sc.PktDrop(0, 0, 1, 1, "data", DropFailStop)
	sc.Lifecycle(0, 1, KindOpTimeout, 0)
	sc.publish(sim.Time(5 * sim.Microsecond))
	return NewSnapshotDoc(tr.LiveSnapshot())
}

func TestSnapshotDocRoundTrip(t *testing.T) {
	doc := sampleDoc(t)
	if doc.Epoch != 1 || doc.AtUS != 5 {
		t.Fatalf("doc stamps: epoch=%d atUS=%v", doc.Epoch, doc.AtUS)
	}
	if len(doc.Tenants) != 1 || doc.Tenants[0].Tenant != 0 {
		t.Fatalf("tenant view: %+v", doc.Tenants)
	}
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	n, err := ValidateSnapshotJSON(data)
	if err != nil {
		t.Fatalf("validate: %v\n%s", err, data)
	}
	if n != 1 {
		t.Fatalf("validated %d scopes, want 1", n)
	}
}

func TestValidateSnapshotRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"not json":       `nope`,
		"wrong version":  `{"schemaVersion":99,"epoch":0,"atUS":0,"scopes":[]}`,
		"unnamed scope":  `{"schemaVersion":3,"epoch":0,"atUS":0,"scopes":[{"name":""}]}`,
		"epoch mismatch": `{"schemaVersion":3,"epoch":5,"atUS":0,"scopes":[{"name":"a","epoch":2}]}`,
		"unbound tenant": `{"schemaVersion":3,"epoch":0,"atUS":0,"scopes":[{"name":"a"}],"tenants":[{"scope":0,"group":0,"tenant":-1}]}`,
		"tenant scope":   `{"schemaVersion":3,"epoch":0,"atUS":0,"scopes":[{"name":"a"}],"tenants":[{"scope":1,"group":0,"tenant":0}]}`,
		"tenant repeat":  `{"schemaVersion":3,"epoch":0,"atUS":0,"scopes":[{"name":"a"}],"tenants":[{"scope":0,"group":0,"tenant":0},{"scope":0,"group":1,"tenant":0}]}`,
		"drop sum":       `{"schemaVersion":3,"epoch":0,"atUS":0,"scopes":[{"name":"a","groups":[{"group":0,"tenant":-1,"dropped":2,"drops":{"injected":1}}]}]}`,
		"bin sum":        `{"schemaVersion":3,"epoch":0,"atUS":0,"scopes":[{"name":"a","groups":[{"group":0,"tenant":-1,"latency":{"count":3,"bins":[{"v":10,"n":1}]}}]}]}`,
		"empty bin":      `{"schemaVersion":3,"epoch":0,"atUS":0,"scopes":[{"name":"a","groups":[{"group":0,"tenant":-1,"latency":{"count":0,"bins":[{"v":10,"n":0}]}}]}]}`,
		"quantile order": `{"schemaVersion":3,"epoch":0,"atUS":0,"scopes":[{"name":"a","groups":[{"group":0,"tenant":-1,"latency":{"count":1,"p50US":9,"p95US":5,"p99US":9,"maxUS":9,"bins":[{"v":10,"n":1}]}}]}]}`,
	}
	for name, c := range cases {
		if _, err := ValidateSnapshotJSON([]byte(c)); err == nil {
			t.Errorf("%s: accepted %q", name, c)
		}
	}
}

// Two scopes that each bind tenant 0 are unrelated data points: the doc
// reports one tenant-0 row per scope, each with only its own scope's
// latency, rather than one row pooling both.
func TestSnapshotTenantsPerScope(t *testing.T) {
	tr := NewTracer()
	for i, name := range []string{"point a", "point b"} {
		sc := tr.NewScope(name)
		sc.BindGroupTenant(1, 0)
		sc.OpSpan(1, "barrier", 0, 0, sim.Time((i+1)*int(sim.Microsecond)))
	}
	doc := NewSnapshotDoc(tr.Snapshot())
	if len(doc.Tenants) != 2 {
		t.Fatalf("%d tenant rows, want one per scope: %+v", len(doc.Tenants), doc.Tenants)
	}
	for i, r := range doc.Tenants {
		if r.Tenant != 0 || r.Latency.Count != 1 || r.Latency.MaxUS != float64(i+1) {
			t.Fatalf("row %d: tenant %d, %d latencies, max %vus; want tenant 0, 1 latency of %dus",
				i, r.Tenant, r.Latency.Count, r.Latency.MaxUS, i+1)
		}
	}
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateSnapshotJSON(data); err != nil {
		t.Fatalf("validate: %v\n%s", err, data)
	}
}

func TestValidateSnapshotErrorNamesLocation(t *testing.T) {
	doc := sampleDoc(t)
	doc.Scopes[0].Groups[0].Dropped = 7 // break the drop-sum invariant
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	_, err = ValidateSnapshotJSON(data)
	if err == nil || !strings.Contains(err.Error(), `scope "cluster 8n"`) {
		t.Fatalf("error should name the failing scope: %v", err)
	}
}
