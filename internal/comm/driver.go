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

// TenantRun is one tenant's ledger of a driven run.
type TenantRun struct {
	Tenant
	// Group is the tenant's group; nil if its install never ran.
	Group *Group
	// Done holds every completed op's completion instant in op order,
	// across swaps and recovery rebuilds.
	Done []sim.Time

	arrived sim.Time // when the arrival event fired
	swapErr error    // the swap's rebuild error; nil if it took
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
// point and departing if it departs. Every completed op is ledgered and,
// on a traced cluster, emitted as a span at its completion. The run
// drives the engine until it drains, so every tenant has completed its
// ops, failed terminally, departed or stalled. It returns one ledger per
// tenant, in ts order. An install failure installs no later tenant and
// returns that tenant's error. If tenants stalled, the error wraps
// ErrStalled and names them and how many of them still wait for NIC
// slots.
func RunTenants(c *Cluster, ts []Tenant) ([]TenantRun, error) {
	d := &driver{c: c}
	runs := make([]TenantRun, len(ts))
	for i, t := range ts {
		r := &runs[i]
		*r = TenantRun{Tenant: t, Done: make([]sim.Time, 0, t.Ops), d: d}
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
		if len(r.Done) < r.Ops && !r.Group.Failed() {
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
	r.Group, r.arrived, g.run = g, d.c.Eng.Now(), r
	g.pace = pacer{eng: d.c.Eng, arrivals: r.Arrivals, think: r.Think}
	g.applyPace()
	ops := r.Ops
	if r.SwapAt > 0 {
		ops = r.SwapAt
	}
	g.launch(ops)
}

// opDone is the group's completion hook: it ledgers the op, emits its
// span, and at the end of a run swaps the tenant or retires it.
func (r *TenantRun) opDone(iter int, at sim.Time) {
	g := r.Group
	if tr := g.c.tr; tr != nil {
		tr.OpSpan(int(g.ID), g.Kind.String(), r.eligible(len(r.Done)), g.StartAt()[iter], at)
	}
	r.Done = append(r.Done, at)
	switch len(r.Done) {
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

// eligible is the instant op k became eligible to post, where its span
// and its latency start: an open-loop op's arrival, a closed-loop op's
// think time after the previous completion (op 0: after the tenant's
// arrival).
func (r *TenantRun) eligible(k int) sim.Time {
	if r.Arrivals != nil {
		return r.Arrivals[k]
	}
	at := r.arrived
	if k > 0 {
		at = r.Done[k-1]
	}
	if r.Think != nil {
		at = at.Add(r.Think[k])
	}
	return at
}
