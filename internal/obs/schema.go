package obs

import (
	"encoding/json"
	"fmt"
)

// SnapshotSchemaVersion is the version stamped into every serialized
// SnapshotDoc. Bump it on any field change that is not
// backward-compatible; ValidateSnapshotJSON rejects other versions.
const SnapshotSchemaVersion = 3

// SnapshotDoc is the wire form of a metrics snapshot: what the metrics
// service's /snapshot endpoint serves and what cmd/tracecheck
// -snapshot validates. Epoch sums the per-scope publication epochs (0
// for a quiescent snapshot), so two docs from the same run are ordered
// by it; Tenants holds each scope's tenant-merged view (see
// ScopeSnapshot.MergeTenants), scope by scope.
type SnapshotDoc struct {
	SchemaVersion int             `json:"schemaVersion"`
	Epoch         uint64          `json:"epoch"`
	AtUS          float64         `json:"atUS"`
	Scopes        []ScopeSnapshot `json:"scopes"`
	Tenants       []TenantRow     `json:"tenants,omitempty"`
}

// TenantRow is one tenant's merged row within one scope. Scope indexes
// the doc's Scopes: names do not identify a scope, since a scenario may
// measure the same point twice.
type TenantRow struct {
	Scope int `json:"scope"`
	GroupSnapshot
}

// NewSnapshotDoc wraps a snapshot in its versioned wire form, filling
// the doc-level epoch/time stamps from the scopes and attaching every
// scope's tenant-merged view.
func NewSnapshotDoc(snap Snapshot) SnapshotDoc {
	doc := SnapshotDoc{SchemaVersion: SnapshotSchemaVersion, Scopes: snap.Scopes}
	for i, sc := range snap.Scopes {
		doc.Epoch += sc.Epoch
		if sc.AtUS > doc.AtUS {
			doc.AtUS = sc.AtUS
		}
		for _, g := range sc.MergeTenants() {
			doc.Tenants = append(doc.Tenants, TenantRow{i, g})
		}
	}
	return doc
}

// ValidateSnapshotJSON parses data as a SnapshotDoc and checks its
// internal consistency: the schema version, that every group's
// drop-reason breakdown sums to its drop total, that histogram bin
// counts sum to the histogram count, that quantiles are ordered, that
// the doc epoch equals the sum of the scope epochs, and that every
// tenant row names a bound tenant of a scope in the doc, once per
// scope. It returns the number of scopes on success.
func ValidateSnapshotJSON(data []byte) (int, error) {
	var doc SnapshotDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return 0, fmt.Errorf("snapshot: parse: %w", err)
	}
	if doc.SchemaVersion != SnapshotSchemaVersion {
		return 0, fmt.Errorf("snapshot: schema version %d, want %d",
			doc.SchemaVersion, SnapshotSchemaVersion)
	}
	var epochs uint64
	for si, sc := range doc.Scopes {
		if sc.Name == "" {
			return 0, fmt.Errorf("snapshot: scope %d: empty name", si)
		}
		epochs += sc.Epoch
		for _, g := range sc.Groups {
			where := fmt.Sprintf("scope %q group %d", sc.Name, g.Group)
			if err := validateGroup(where, g); err != nil {
				return 0, err
			}
		}
	}
	if doc.Epoch != epochs {
		return 0, fmt.Errorf("snapshot: doc epoch %d != scope epoch sum %d",
			doc.Epoch, epochs)
	}
	seen := map[[2]int]bool{}
	for _, r := range doc.Tenants {
		if r.Scope < 0 || r.Scope >= len(doc.Scopes) {
			return 0, fmt.Errorf("snapshot: tenant row for scope %d of %d", r.Scope, len(doc.Scopes))
		}
		if r.Tenant < 0 {
			return 0, fmt.Errorf("snapshot: scope %d: tenant row with unbound tenant (group %d)", r.Scope, r.Group)
		}
		key := [2]int{r.Scope, r.Tenant}
		if seen[key] {
			return 0, fmt.Errorf("snapshot: scope %d: tenant %d repeated", r.Scope, r.Tenant)
		}
		seen[key] = true
		if err := validateGroup(fmt.Sprintf("scope %d tenant %d", r.Scope, r.Tenant), r.GroupSnapshot); err != nil {
			return 0, err
		}
	}
	return len(doc.Scopes), nil
}

func validateGroup(where string, g GroupSnapshot) error {
	if got := g.Drops.sum(); got != g.Dropped {
		return fmt.Errorf("snapshot: %s: drop reasons sum to %d, dropped = %d",
			where, got, g.Dropped)
	}
	h := g.Latency
	var binned uint64
	for _, b := range h.Bins {
		if b.N == 0 {
			return fmt.Errorf("snapshot: %s: empty histogram bin at %dns", where, b.V)
		}
		binned += b.N
	}
	if binned != h.Count {
		return fmt.Errorf("snapshot: %s: histogram bins sum to %d, count = %d",
			where, binned, h.Count)
	}
	if h.Count > 0 {
		if h.P50US > h.P95US || h.P95US > h.P99US || h.P99US > h.MaxUS {
			return fmt.Errorf("snapshot: %s: quantiles out of order (p50=%g p95=%g p99=%g max=%g)",
				where, h.P50US, h.P95US, h.P99US, h.MaxUS)
		}
	}
	return nil
}
