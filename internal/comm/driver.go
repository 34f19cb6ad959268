package comm

import (
	"errors"
	"fmt"

	"nicbarrier/internal/sim"
)

// ErrStalled marks a driven run whose engine ran out of events while
// tenants were still incomplete: neither done, failed terminally nor
// departed.
var ErrStalled = errors.New("comm: tenant driver stalled")

// Tenant is one planned tenant of a driven run.
type Tenant struct {
	// Index is the tenant's workload-wide index: the label its groups
	// carry on a traced cluster, and the one errors name.
	Index int
	// At is the arrival instant, when the tenant installs its group.
	At sim.Time
	// Config is the tenant's group; Ops the operations it runs.
	Config GroupConfig
	Ops    int
	// Arrivals holds the open-loop arrival instant of every op; Think
	// the closed-loop think time before every op. Both nil runs the
	// stream back to back.
	Arrivals []sim.Time
	Think    []sim.Duration
	// SwapAt, when in (0, Ops), reconfigures the group onto SwapTo
	// after SwapAt ops; a refused swap keeps the old membership.
	SwapAt int
	SwapTo []int
	// Departs closes the group after its last op.
	Departs bool
	// Recovery arms fail-stop survival when its OpDeadline is nonzero.
	Recovery RecoveryConfig
}

// TenantRun is one tenant of a driven run: its record and the group it
// ran on, whose ledger (Group.Completions) holds what it completed.
type TenantRun struct {
	Tenant
	// Group is the tenant's group; nil if its install never ran.
	Group *Group

	swapErr error // the swap's rebuild error; nil if it took
	d       *driver
}

// driver is the state one RunTenants call shares across its tenants.
type driver struct {
	c   *Cluster
	err error // the first install failure; later arrivals install nothing
}

// RunTenants is the tenant driver: it runs ts on c, each tenant
// installing its group from its own engine event at its arrival
// instant, then launching, pacing, swapping membership at its swap
// point and departing if it departs. The run drives the engine until
// it drains, so every tenant has completed its ops, failed terminally,
// departed or stalled. It returns one TenantRun per tenant, in ts
// order. An install failure installs no later tenant and
// returns that tenant's error. If tenants stalled, the error wraps
// ErrStalled and names them and how many of them still wait for NIC
// slots.
func RunTenants(c *Cluster, ts []Tenant) ([]TenantRun, error) {
	d := &driver{c: c}
	runs := make([]TenantRun, len(ts))
	for i, t := range ts {
		r := &runs[i]
		*r = TenantRun{Tenant: t, d: d}
		c.Eng.Schedule(max(t.At, c.Eng.Now()), r.arrive)
	}
	c.Eng.Run()
	for _, r := range runs {
		if r.Group != nil {
			r.Group.run = nil // nothing of the run stays reachable from c
		}
	}
	if c.tr != nil {
		c.tr.PublishFinal(c.Eng.Now())
	}
	if d.err != nil {
		return runs, d.err
	}
	var stalled []int
	queued := 0
	for _, r := range runs {
		if r.Group.OpsCompleted() < r.Ops && !r.Group.Failed() {
			stalled = append(stalled, r.Index)
			if !r.Group.Installed() {
				queued++
			}
		}
	}
	if stalled != nil {
		return runs, fmt.Errorf("%w: tenants %v incomplete (%d still queued for slots)",
			ErrStalled, stalled, queued)
	}
	return runs, nil
}

// arrive installs the tenant's group, arms its pacer and recovery, and
// launches its first run.
func (r *TenantRun) arrive() {
	d := r.d
	if d.err != nil {
		return
	}
	g, err := d.c.newGroup(r.Config, r.Index)
	if err == nil && r.Recovery.OpDeadline > 0 {
		if err = g.setRecovery(r.Recovery); err != nil {
			g.Close()
		}
	}
	if err != nil {
		d.err = fmt.Errorf("comm: tenant %d: %w", r.Index, err)
		return
	}
	r.Group, g.run = g, r
	g.pace = pacer{eng: d.c.Eng, arrivals: r.Arrivals, think: r.Think}
	g.applyPace()
	ops := r.Ops
	if r.SwapAt > 0 {
		ops = r.SwapAt
	}
	g.launch(ops)
}

// opDone is the driver's part of the group's completion hook: at the
// end of a run it swaps the tenant or retires it.
func (r *TenantRun) opDone() {
	g := r.Group
	switch g.OpsCompleted() {
	case r.SwapAt:
		g.Reset()
		r.swapErr = g.rebuild(r.SwapTo)
		g.launch(r.Ops - r.SwapAt)
	case r.Ops:
		if r.Departs {
			g.Close() // frees the slots; queued installs drain now
		}
	}
}
