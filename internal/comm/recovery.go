package comm

import (
	"fmt"
	"slices"

	"nicbarrier/internal/core"
	"nicbarrier/internal/obs"
	"nicbarrier/internal/sim"
)

// Fail-stop survival. The substrates' reliability machinery recovers
// lost packets, not dead endpoints: a permanently crashed member stalls
// every collective on its groups forever, because the bit-vector
// records wait for an arrival that will never come. This file bounds
// that hang. A group run as a Tenant with Recovery set gets
//
//   - an operation deadline: a watchdog re-armed on every globally
//     completed operation; when no operation completes for OpDeadline
//     of virtual time, the in-flight run is aborted cleanly (NACK and
//     deferral timers cancelled, NIC slot state consistent);
//   - a failure detector: every member multicasts small heartbeats to
//     its next Fanout ring successors over the simulated network, so
//     the same crashes and partitions that stall the collective also
//     silence the victim's probes. A rank silent for SuspectAfter is a
//     suspect. Heartbeat silence is the sole eviction authority —
//     protocol-level signals (missing bit-vector ranks, NACK stalls)
//     misidentify healthy-but-blocked ranks on dissemination-style
//     schedules, where one dead rank transitively stalls everyone;
//   - eviction and retry: on deadline expiry with suspects, the
//     suspects are evicted via the make-before-break Reconfigure
//     machinery and the remaining operations relaunch on the survivors
//     after RetryBackoff; with no suspects (a transient stall, e.g. a
//     windowed crash that has healed) the run simply retries on the
//     same membership. MaxRetries bounds the cycle; exhaustion yields
//     a terminal *core.OpTimeoutError instead of a hang.
//
// Recovery is restricted to the NIC-resident collective schemes
// (Myrinet SchemeCollective, Quadrics SchemeChained): the host and
// direct schemes ride the point-to-point machinery, whose per-packet
// retransmission timers against a dead peer would re-arm forever and
// leak past the abort. Everything here is strictly opt-in — a group
// without recovery schedules no timers, sends no heartbeats, and
// draws no randomness, leaving default timelines bit-identical.

// RecoveryConfig tunes fail-stop survival for one group. All durations
// are simulated time.
type RecoveryConfig struct {
	// OpDeadline is the maximum virtual time between consecutive
	// operation completions before the run is declared stuck. Required
	// (zero disables recovery). It should comfortably exceed the
	// group's worst-case single-operation latency including NACK
	// recovery under loss.
	OpDeadline sim.Duration
	// HeartbeatEvery is the liveness probe period. Default
	// OpDeadline/8.
	HeartbeatEvery sim.Duration
	// SuspectAfter is the silence threshold past which a member
	// becomes a suspect. Default 3x HeartbeatEvery. It must be long
	// enough that probe latency plus handler queueing cannot falsely
	// accuse a live member.
	SuspectAfter sim.Duration
	// Fanout is how many ring successors each member probes. Default
	// 2, so a single crashed successor cannot silence a healthy
	// sender; clamp to group size - 1. Raise it when a schedule must
	// survive more simultaneous crashes.
	Fanout int
	// MaxRetries bounds abort/relaunch cycles per run. Default 3.
	MaxRetries int
	// RetryBackoff is the virtual-time delay before a relaunch.
	// Default OpDeadline/4.
	RetryBackoff sim.Duration
}

func (rc RecoveryConfig) withDefaults() RecoveryConfig {
	if rc.HeartbeatEvery == 0 {
		rc.HeartbeatEvery = rc.OpDeadline / 8
	}
	if rc.SuspectAfter == 0 {
		rc.SuspectAfter = 3 * rc.HeartbeatEvery
	}
	if rc.Fanout == 0 {
		rc.Fanout = 2
	}
	if rc.MaxRetries == 0 {
		rc.MaxRetries = 3
	}
	if rc.RetryBackoff == 0 {
		rc.RetryBackoff = rc.OpDeadline / 4
	}
	return rc
}

// RecoveryStatus is a snapshot of a group's fail-stop survival state.
type RecoveryStatus struct {
	// Evicted lists the node IDs removed from the membership, in
	// eviction order.
	Evicted []int
	// Retries counts abort/relaunch cycles; Timeouts counts watchdog
	// expiries (equal to Retries unless the last expiry was terminal).
	Retries, Timeouts int
	// Err is the terminal error (*core.OpTimeoutError), nil while the
	// group is healthy or recovered.
	Err error
}

// recovery is the per-group fail-stop survival machinery.
type recovery struct {
	g   *Group
	cfg RecoveryConfig

	// inFlight spans from a fresh launch to settle (run complete) or
	// terminal failure, backoff windows (group momentarily not launched)
	// included; heartbeats, deadline and relaunch act only while it is set.
	inFlight bool
	target   int // the group's completed-op count that settles the run

	evicted  []int // node IDs removed by Evict, in order
	retries  int
	timeouts int
	err      error

	watchdog  sim.Timer
	hbTimer   sim.Timer
	lastHeard []sim.Time // per current rank, last delivery seen anywhere
}

// setRecovery arms fail-stop survival on the group. It must be called
// before launch, on an idle group; the configuration applies to every
// subsequent run. Only the NIC-resident collective schemes support
// recovery (see the comment above); others error.
func (g *Group) setRecovery(cfg RecoveryConfig) error {
	if cfg.OpDeadline <= 0 {
		return fmt.Errorf("comm: recovery needs a positive OpDeadline")
	}
	if g.closed {
		return fmt.Errorf("comm: recovery on a closed group")
	}
	if g.rec != nil {
		return fmt.Errorf("comm: recovery already configured")
	}
	if g.launched {
		return fmt.Errorf("comm: recovery on a launched group")
	}
	if err := g.c.be.checkRecovery(g.gc); err != nil {
		return err
	}
	rec := &recovery{g: g, cfg: cfg.withDefaults()}
	g.rec = rec
	g.c.ensureFailureRouting()
	g.c.hbRoute[g.ID] = rec
	return nil
}

// Recovery returns a snapshot of the group's fail-stop survival state,
// or nil when the group runs without recovery.
func (g *Group) Recovery() *RecoveryStatus {
	if g.rec == nil {
		return nil
	}
	rec := g.rec
	return &RecoveryStatus{
		Evicted:  slices.Clone(rec.evicted),
		Retries:  rec.retries,
		Timeouts: rec.timeouts,
		Err:      rec.err,
	}
}

// Failed reports whether the group's recovery has terminally failed
// (deadline expiries exhausted MaxRetries, or too few survivors).
func (g *Group) Failed() bool { return g.rec != nil && g.rec.err != nil }

// Err returns the group's terminal recovery error, nil while healthy.
func (g *Group) Err() error {
	if g.rec == nil {
		return nil
	}
	return g.rec.err
}

// evict removes the given ranks from the group's membership via the
// make-before-break Reconfigure machinery: the survivors get a fresh
// group (new ID, fresh NIC slots), the group-level operation sequence
// carries over, and the old slots are released. The group must be idle
// (between runs or after an abort). Evicting down to fewer than 2
// members errors, as the substrates do not model self-collectives.
func (g *Group) evict(ranks ...int) error {
	if len(ranks) == 0 {
		return nil
	}
	drop := make(map[int]bool, len(ranks))
	for _, r := range ranks {
		if r < 0 || r >= len(g.Members) {
			return fmt.Errorf("comm: evicting rank %d from a group of %d", r, len(g.Members))
		}
		drop[r] = true
	}
	survivors := make([]int, 0, len(g.Members)-len(ranks))
	var victims []int
	for r, node := range g.Members {
		if drop[r] {
			victims = append(victims, node)
		} else {
			survivors = append(survivors, node)
		}
	}
	if len(survivors) < 2 {
		return fmt.Errorf("comm: eviction leaves %d member(s); need at least 2", len(survivors))
	}
	if err := g.rebuild(survivors); err != nil {
		return err
	}
	if g.rec != nil {
		g.rec.evicted = append(g.rec.evicted, victims...)
	}
	if g.c.tr != nil {
		for _, node := range victims {
			g.c.tr.Lifecycle(g.c.Eng.Now(), int(g.ID), obs.KindEvict, int64(node))
		}
	}
	return nil
}

// rebuild swaps the group onto members via Reconfigure, keeping the
// heartbeat routing coherent across the ID change.
func (g *Group) rebuild(members []int) error {
	oldID := g.ID
	if err := g.Reconfigure(members); err != nil {
		return err
	}
	if g.rec != nil {
		delete(g.c.hbRoute, oldID)
		g.c.hbRoute[g.ID] = g.rec
	}
	return nil
}

// ensureFailureRouting lazily installs the cluster-wide heartbeat and
// NACK-stall dispatchers on every NIC, routing by group ID to the
// owning recovery. Installed once, on the first setRecovery; clusters
// that never configure recovery never touch the NIC hooks.
func (c *Cluster) ensureFailureRouting() {
	if c.hbRoute != nil {
		return
	}
	c.hbRoute = make(map[core.GroupID]*recovery)
	onHB := func(gid core.GroupID, fromRank int) {
		if rec := c.hbRoute[gid]; rec != nil {
			rec.heard(fromRank)
		}
	}
	onStall := func(gid core.GroupID, round int) {
		if rec := c.hbRoute[gid]; rec != nil {
			rec.onNackStall()
		}
	}
	c.be.setFailureHooks(onHB, onStall)
}

// onLaunch arms the machinery for a fresh launch (not a relaunch): the
// run's target is set, the watchdog arms, and the heartbeat ring starts
// ticking.
func (rec *recovery) onLaunch(iters int) {
	if rec.inFlight {
		// A relaunch inside an ongoing run: target stands.
		rec.armRun()
		return
	}
	rec.inFlight = true
	rec.target = rec.g.led.ops + iters
	rec.err = nil
	rec.armRun()
	rec.tickHeartbeats()
}

// armRun (re)arms the watchdog and refreshes the liveness ledger for a
// (re)launched session.
func (rec *recovery) armRun() {
	rec.resetHeard()
	rec.armWatchdog()
}

func (rec *recovery) armWatchdog() {
	rec.watchdog.Cancel()
	rec.watchdog = rec.g.c.Eng.After(rec.cfg.OpDeadline, rec.onDeadline)
}

func (rec *recovery) resetHeard() {
	now := rec.g.c.Eng.Now()
	rec.lastHeard = rec.lastHeard[:0]
	for range rec.g.Members {
		rec.lastHeard = append(rec.lastHeard, now)
	}
}

// heard records a heartbeat delivery for a rank. The ledger is the
// union of every member's observations — one live listener suffices to
// clear a sender.
func (rec *recovery) heard(fromRank int) {
	if fromRank >= 0 && fromRank < len(rec.lastHeard) {
		rec.lastHeard[fromRank] = rec.g.c.Eng.Now()
	}
}

// suspectRanks lists current ranks silent for longer than SuspectAfter.
func (rec *recovery) suspectRanks() []int {
	now := rec.g.c.Eng.Now()
	var out []int
	for r, at := range rec.lastHeard {
		if now.Sub(at) > rec.cfg.SuspectAfter {
			out = append(out, r)
		}
	}
	return out
}

// tickHeartbeats runs the probe ring: every member sends to its next
// Fanout ring successors, then the timer re-arms. Crashed members'
// probes drop on the simulated wire (fail-stop matches the sender),
// which is exactly how their silence reaches the detector.
func (rec *recovery) tickHeartbeats() {
	if !rec.inFlight {
		return
	}
	g := rec.g
	n := len(g.Members)
	fanout := min(rec.cfg.Fanout, n-1)
	for r, node := range g.Members {
		for k := 1; k <= fanout; k++ {
			g.c.be.sendHeartbeat(g.ID, node, r, g.Members[(r+k)%n])
		}
	}
	rec.hbTimer = g.c.Eng.After(rec.cfg.HeartbeatEvery, rec.tickHeartbeats)
}

// onProgress observes one globally completed operation: settle if the
// target is reached, else push the deadline out.
func (rec *recovery) onProgress() {
	if rec.g.led.ops >= rec.target {
		rec.settle()
		return
	}
	rec.armWatchdog()
}

// settle ends a recovering run successfully: timers stop, heartbeats
// stop, inFlight clears.
func (rec *recovery) settle() {
	rec.inFlight = false
	rec.stopTimers()
}

func (rec *recovery) stopTimers() {
	rec.watchdog.Cancel()
	rec.watchdog = sim.Timer{}
	rec.hbTimer.Cancel()
	rec.hbTimer = sim.Timer{}
}

// fail ends a recovering run terminally.
func (rec *recovery) fail(suspects []int) {
	rec.err = &core.OpTimeoutError{Group: rec.g.ID, Op: rec.g.led.ops, Suspects: suspects}
	rec.inFlight = false
	rec.stopTimers()
}

// onNackStall accelerates the deadline check when the Myrinet NACK
// machinery reports consecutive fruitless retransmission rounds: if
// the detector already holds suspects there is no point waiting out
// the rest of the deadline. A stall without suspects is ignored —
// NACK stalls alone misidentify healthy-but-blocked ranks.
func (rec *recovery) onNackStall() {
	if !rec.inFlight || !rec.g.launched {
		return
	}
	if len(rec.suspectRanks()) == 0 {
		return
	}
	rec.watchdog.Cancel()
	rec.onDeadline()
}

// onDeadline is the watchdog body: no operation completed for
// OpDeadline. Abort the run cleanly, consult the detector, then evict
// and retry, plain-retry, or fail.
func (rec *recovery) onDeadline() {
	g := rec.g
	if !rec.inFlight || !g.launched || g.closed {
		return
	}
	rec.timeouts++
	suspects := rec.suspectRanks()
	suspectNodes := make([]int, 0, len(suspects))
	for _, r := range suspects {
		suspectNodes = append(suspectNodes, g.Members[r])
	}
	if g.c.tr != nil {
		g.c.tr.Lifecycle(g.c.Eng.Now(), int(g.ID), obs.KindOpTimeout, int64(g.led.ops))
	}
	g.fold()
	g.sess.Abort()
	g.launched = false
	if rec.retries >= rec.cfg.MaxRetries {
		rec.fail(suspectNodes)
		return
	}
	if len(suspects) > 0 {
		if err := g.evict(suspects...); err != nil {
			// Too few survivors, or no slots for the make-before-break
			// swap: nothing left to retry on.
			rec.fail(suspectNodes)
			return
		}
	} else {
		// A stall with every member audibly alive: transient (a healed
		// windowed crash, a burst of loss). Retry on the same
		// membership — the aborted session cannot restart, so the
		// rebuild still swaps in a fresh one.
		if err := g.rebuild(slices.Clone(g.Members)); err != nil {
			rec.fail(suspectNodes)
			return
		}
	}
	rec.retries++
	if g.c.tr != nil {
		g.c.tr.Lifecycle(g.c.Eng.Now(), int(g.ID), obs.KindRetry, int64(rec.retries))
	}
	g.c.Eng.After(rec.cfg.RetryBackoff, rec.relaunch)
}

// relaunch posts the remaining operations on the rebuilt session.
func (rec *recovery) relaunch() {
	g := rec.g
	if g.closed || !rec.inFlight {
		return
	}
	remaining := rec.target - g.led.ops
	if remaining <= 0 {
		rec.settle()
		return
	}
	g.launched = true
	g.launchSess(remaining)
}

// stop tears the machinery down with its group (Close path).
func (rec *recovery) stop() {
	rec.inFlight = false
	rec.stopTimers()
	delete(rec.g.c.hbRoute, rec.g.ID)
}
