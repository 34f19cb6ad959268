package core

import (
	"fmt"

	"nicbarrier/internal/sim"
)

// Backend is what a NIC model supplies to the session driver: the
// per-member actions behind the run bookkeeping. Its String names the
// session in panics and deadlock diagnostics.
type Backend interface {
	fmt.Stringer
	// Start posts absolute operation seq, run-local iteration iter, on
	// rank's node.
	Start(rank, seq, iter int)
	// Abort freezes rank's in-flight operation: host-side schedule state
	// and NIC-resident records stop touching state (Abort).
	Abort(rank int)
	// Uninstall releases every member's NIC resources and host binding
	// (Close).
	Uninstall()
	// ChargeInstall charges every member NIC's install cost on the
	// simulated timeline (ChargeInstall).
	ChargeInstall()
}

// Mode fixes, per collective, how a session's members move from one
// operation to the next and what the driver records.
type Mode uint8

const (
	// Chained sessions post operation k+1 on a member as soon as that
	// member completed k, as real benchmark loops do (barriers
	// self-synchronize).
	Chained Mode = iota
	// Gated sessions post k+1 only once every member completed k (used
	// for broadcast, which does not synchronize its participants).
	Gated
	// Results sessions chain like Chained and collect one value per
	// iteration and rank (allreduce); see SetResult and Results.
	Results
)

// Session runs consecutive collective operations over the members of one
// installed group — the measurement loop of the paper's Section 8
// ("processes execute consecutive barrier operations"). It is the run
// bookkeeping both NIC models share: launch, per-iteration completion
// counts and times, NextAt pacing, reset, abort and teardown guards.
// Backends embed it and supply only the per-member actions (Backend),
// calling Complete when a member finishes an operation.
type Session struct {
	eng  *sim.Engine
	be   Backend
	mode Mode
	size int

	// defers holds one NextAt deferral record per rank, allocated as one
	// slice on the first deferral: deferred loops then schedule no new
	// objects, and sessions that never pace carry none.
	defers []deferral

	iters  int
	doneAt []sim.Time // completion time per iteration of this run
	// startAt holds, per iteration of this run, the virtual time the
	// first member posted it (-1 until posted). The span startAt..doneAt
	// is the operation's in-flight phase; what precedes startAt is queue
	// wait, which workload engines attribute separately.
	startAt []sim.Time
	pending []int // per iteration of this run, members not yet complete
	// base is the absolute operation sequence this run starts at: NIC
	// group records number operations monotonically across runs, so after
	// Reset a relaunched session maps absolute sequence s to run-local
	// iteration s-base.
	base int
	// closed marks a torn-down session; launching it again is a
	// programming error (install a new session instead).
	closed bool
	// aborted marks a session whose current run was cancelled mid-flight
	// (deadline expiry). The NIC-side ops are frozen and the run
	// bookkeeping discarded; the only legal next step is Close — recovery
	// installs a fresh session rather than restarting this one, since
	// surviving members' sequence windows may disagree about the aborted
	// operation.
	aborted bool
	// gen counts run generations (bumped by Launch, Reset and Abort).
	// Complete snapshots it around the OnIterDone callback: a callback
	// that Resets and relaunches the session — the churn engine's
	// depart/reconfigure hooks do — invalidates the old run's chained
	// next-op posts, which must not leak into the new run.
	gen int

	// results[iter][rank] collects Results-mode outcomes; nil otherwise.
	results [][]int64

	// NextAt, when set before Launch, gates when a member may post
	// iteration `next`: the returned virtual time is the earliest post
	// instant (times at or before "now" post immediately, preserving the
	// default back-to-back loop). Workload engines use it to shape
	// open-loop arrival processes and closed-loop think times.
	NextAt func(rank, next int) sim.Time
	// OnIterDone, when set, observes each iteration's global completion
	// (all members done) at the virtual time it happens.
	OnIterDone func(iter int, at sim.Time)
}

// deferral is one rank's pending NextAt-deferred post. The driver
// schedules the record itself as the sim.Event, at most one per rank
// (iterations chain), and keeps its timer so Abort can cancel it (a
// fired or zero timer cancels as a no-op).
type deferral struct {
	s     *Session
	rank  int
	seq   int
	timer sim.Timer
}

// Fire implements sim.Event: post the deferred operation.
func (d *deferral) Fire() { d.s.start(d.rank, d.seq) }

// NewSession returns the driver for a group of size ranks on eng.
func NewSession(eng *sim.Engine, size int, be Backend, mode Mode) *Session {
	return &Session{eng: eng, be: be, mode: mode, size: size}
}

// Launch prepares iters consecutive operations and posts iteration 0 on
// every member, without driving the engine: callers that multiplex
// several sessions over one cluster launch them all, then run the engine
// themselves until every session reports Done.
func (s *Session) Launch(iters int) {
	if iters < 1 {
		panic(fmt.Sprintf("%v: iterations %d", s.be, iters))
	}
	if s.closed {
		panic(fmt.Sprintf("%v: Launch on a closed session", s.be))
	}
	if s.aborted {
		panic(fmt.Sprintf("%v: Launch on an aborted session (install a new one)", s.be))
	}
	if s.iters != 0 {
		panic(fmt.Sprintf("%v: session launched twice (Reset between runs)", s.be))
	}
	s.gen++
	s.iters = iters
	s.doneAt = make([]sim.Time, iters)
	s.startAt = make([]sim.Time, iters)
	for i := range s.startAt {
		s.startAt[i] = -1
	}
	s.pending = make([]int, iters)
	for i := range s.pending {
		s.pending[i] = s.Size()
	}
	if s.mode == Results {
		s.results = make([][]int64, iters)
		for i := range s.results {
			s.results[i] = make([]int64, s.Size())
		}
	}
	for r := range s.size {
		s.post(r, s.base)
	}
}

// Reset readies a finished session for another Launch. The group stays
// installed on the NICs (its sequence space continues; the protocol's
// group records are long-lived resources), only the run bookkeeping is
// cleared.
func (s *Session) Reset() {
	if s.aborted {
		panic(fmt.Sprintf("%v: Reset on an aborted session (install a new one)", s.be))
	}
	if s.iters > 0 && !s.Done() {
		panic(fmt.Sprintf("%v: Reset mid-run", s.be))
	}
	s.gen++
	s.base += s.iters
	s.iters = 0
	s.doneAt, s.startAt, s.pending, s.results = nil, nil, nil, nil
}

// Close tears the session down through the backend's Uninstall: member
// NIC resources are freed — the teardown cost charged on their
// processors, so co-resident groups feel it — and host bindings
// released. The session must have drained; closing mid-run panics, since
// member records still expect arrivals. A closed session cannot be
// relaunched.
func (s *Session) Close() {
	if s.closed {
		panic(fmt.Sprintf("%v: session closed twice", s.be))
	}
	if s.iters > 0 && !s.Done() {
		panic(fmt.Sprintf("%v: Close mid-run (drain the launched iterations first)", s.be))
	}
	s.be.Uninstall()
	s.closed = true
}

// Abort cancels the current run mid-flight: per member, the pending
// NextAt deferral is cancelled and the backend freezes the member's
// operation (late doorbells, arrivals and NACKs count stale instead of
// touching state), leaving NIC slot accounting consistent for the Close
// that must follow. Idle, finished, and closed sessions abort as a
// no-op. Abort does not free NIC resources — Close does, exactly as in
// the orderly path.
func (s *Session) Abort() {
	if s.closed || s.iters == 0 || s.Done() {
		return
	}
	s.aborted = true
	s.gen++ // void any in-flight OnIterDone-chained posts
	for r := range s.size {
		if s.defers != nil {
			d := &s.defers[r]
			d.timer.Cancel()
			d.timer = sim.Timer{}
		}
		s.be.Abort(r)
	}
	s.iters = 0
	s.doneAt, s.startAt, s.pending, s.results = nil, nil, nil, nil
}

// ChargeInstall charges every member NIC's group-install cost on the
// simulated timeline. Constructors install for free (setup phase, like
// MPI_Init); lifecycle-aware callers — the communicator layer's
// admission scheduler — call this right after construction so that
// installs performed while the cluster is live delay co-resident groups'
// firmware handlers, as real SRAM writes would.
func (s *Session) ChargeInstall() { s.be.ChargeInstall() }

// post starts absolute operation seq on rank, honoring the NextAt gate
// (which sees run-local iteration numbers).
func (s *Session) post(rank, seq int) {
	if s.NextAt != nil {
		if at := s.NextAt(rank, seq-s.base); at > s.eng.Now() {
			if s.defers == nil {
				s.defers = make([]deferral, s.size)
				for r := range s.defers {
					s.defers[r].s, s.defers[r].rank = s, r
				}
			}
			d := &s.defers[rank]
			d.seq = seq
			d.timer = s.eng.ScheduleEvent(at, d)
			return
		}
	}
	s.start(rank, seq)
}

// start stamps the operation's first post and hands it to the backend.
func (s *Session) start(rank, seq int) {
	s.markStart(seq)
	s.be.Start(rank, seq, seq-s.base)
}

// markStart stamps the first member's post time for operation seq.
func (s *Session) markStart(seq int) {
	if rel := seq - s.base; rel >= 0 && rel < len(s.startAt) && s.startAt[rel] < 0 {
		s.startAt[rel] = s.eng.Now()
	}
}

// Complete records rank's completion of absolute operation seq and
// posts the member's (chained) or every member's (gated) next operation.
func (s *Session) Complete(rank, seq int) {
	if s.aborted {
		return // late completion racing the abort; the run is void
	}
	rel := seq - s.base
	if rel >= s.iters {
		panic(fmt.Sprintf("%v: completion for iteration %d beyond %d", s.be, rel, s.iters))
	}
	s.pending[rel]--
	if s.pending[rel] < 0 {
		panic(fmt.Sprintf("%v: double completion of iteration %d by rank %d", s.be, rel, rank))
	}
	gated := s.mode == Gated
	gen := s.gen
	if s.pending[rel] == 0 {
		s.doneAt[rel] = s.eng.Now()
		if s.OnIterDone != nil {
			s.OnIterDone(rel, s.doneAt[rel])
		}
		if s.gen != gen {
			// The callback reset (and possibly relaunched) the session;
			// this run's chained posts are void — the new run posted its
			// own openers.
			return
		}
		if gated && rel+1 < s.iters {
			for r := range s.size {
				s.post(r, seq+1)
			}
		}
	}
	if !gated && rel+1 < s.iters {
		s.post(rank, seq+1)
	}
}

// SetResult records rank's outcome of absolute operation seq on a
// Results session; elsewhere it is a no-op.
func (s *Session) SetResult(rank, seq int, v int64) {
	if rel := seq - s.base; s.results != nil && rel < len(s.results) {
		s.results[rel][rank] = v
	}
}

// Results returns the outcome per iteration and rank of the current run;
// nil unless the session collects results.
func (s *Session) Results() [][]int64 { return s.results }

// Done reports whether every launched iteration has completed on every
// member.
func (s *Session) Done() bool {
	return s.iters > 0 && s.pending[s.iters-1] == 0
}

// DoneAt returns the completion time per iteration (valid once Done).
func (s *Session) DoneAt() []sim.Time { return s.doneAt }

// StartAt returns, per iteration of the current run, the virtual time
// the first member posted it (-1 if not yet posted). Together with
// DoneAt it decomposes an operation's latency into queue wait (before
// start) and in-flight time (start to done).
func (s *Session) StartAt() []sim.Time { return s.startAt }

// Size reports the number of participating ranks.
func (s *Session) Size() int { return s.size }

// Run executes iters consecutive operations and returns the virtual time
// at which each iteration completed on every member. It panics if the
// simulation deadlocks before finishing.
func (s *Session) Run(iters int) []sim.Time {
	s.Launch(iters)
	if !s.eng.RunCondition(s.Done) {
		panic(fmt.Sprintf("%v: deadlocked (%d ranks, iter pending %v)", s.be, s.Size(), s.pending))
	}
	return s.doneAt
}

// MeanLatency runs warmup+iters consecutive operations and reports the
// mean per-operation latency over the measured iterations, mirroring the
// paper's methodology (first iterations warm up, the rest are averaged).
func (s *Session) MeanLatency(warmup, iters int) sim.Duration {
	doneAt := s.Run(warmup + iters)
	var start sim.Time
	if warmup > 0 {
		start = doneAt[warmup-1]
	}
	return doneAt[warmup+iters-1].Sub(start) / sim.Duration(iters)
}
