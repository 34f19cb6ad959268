package obs

import (
	"fmt"
	"sync/atomic"

	"nicbarrier/internal/sim"
)

// Live snapshot publication: the mid-run half of the metrics API.
//
// Tracer.Snapshot is only safe at quiescence — it walks per-scope
// accumulators that the engine goroutine mutates on every record. The
// live path makes the same data readable by a scraping goroutine
// *while* the engine runs, without adding a lock to the record hot
// path, by exploiting the scope's single-writer discipline: the one
// goroutine that drives a scope's engine is also the only goroutine
// that publishes it. Publication is seqlock-style — the writer stamps
// a sequence counter odd, builds an immutable ScopeSnapshot, installs
// it through an atomic pointer, and stamps the counter even — so a
// reader never sees a torn snapshot: it either loads the previous
// complete publication or the new one, and the Epoch stamped into each
// snapshot increases strictly with every publication.
//
// What drives publication is the metronome: an armed scope checks, on
// every engine event it already observes (EventFired), whether virtual
// time has crossed the next tick, and publishes if so. The metronome
// is purely observational — it schedules no engine events, charges no
// simulated time and touches no RNG, so every virtual-time metric is
// bit-identical with the metronome armed or disarmed. A disarmed
// metronome costs one predicate per observed event and zero
// allocations; publication itself allocates (it builds a snapshot),
// which is why it happens per tick, not per record.

// Publication stamps on a ScopeSnapshot (see that type): Epoch is the
// strictly increasing publication counter, AtUS the virtual time of
// publication in microseconds.

// SetMetronome arms (or with 0 disarms) periodic live publication on
// this scope: while the scope observes engine events, it publishes an
// epoch-stamped snapshot every `every` of virtual time. Call it before
// the scope's engine starts running; the scope must be installed as the
// engine's observer (sim.Engine.SetObserver) for ticks to fire.
func (s *Scope) SetMetronome(every sim.Duration) {
	if every < 0 {
		panic(fmt.Sprintf("obs: negative metronome interval %v", every))
	}
	s.metroEvery = every
	s.metroNext = 0
}

// metroTick publishes and advances the next tick past at. Called from
// the engine goroutine (the scope's single writer) only.
func (s *Scope) metroTick(at sim.Time) {
	s.Publish(at)
	next := s.metroNext
	for next <= at {
		next = next.Add(s.metroEvery)
	}
	s.metroNext = next
}

// Publish builds an immutable snapshot of the scope's current metric
// state, stamps it with the next epoch and the given virtual time, and
// installs it for Live readers. It must be called from the scope's
// writer goroutine (the one driving its engine) while no engine event
// is mutating the scope — between events, or after the run drained.
// It returns the published epoch.
func (s *Scope) Publish(at sim.Time) uint64 {
	s.pubSeq.Add(1) // odd: publication in progress
	snap := s.Snapshot()
	snap.Epoch = s.pubSeq.Load()/2 + 1
	snap.AtUS = at.Micros()
	s.live.Store(&snap)
	s.pubSeq.Add(1) // even: snap is the current publication
	return snap.Epoch
}

// PublishFinal publishes the scope's end-of-run state if the metronome
// is armed — the tenant driver calls it when a run drains, so the
// last live snapshot always reflects completion, not the final partial
// tick. A disarmed scope stays unpublished (the caller never opted into
// live observation).
func (s *Scope) PublishFinal(at sim.Time) {
	if s.metroEvery > 0 {
		s.Publish(at)
	}
}

// Live returns the most recently published snapshot of this scope, or
// nil if the scope has never published. Safe to call from any
// goroutine at any time; the returned snapshot is immutable.
func (s *Scope) Live() *ScopeSnapshot {
	return s.live.Load()
}

// SetMetronome sets the default metronome interval stamped onto every
// scope this tracer creates afterwards (0 disarms). Existing scopes
// are not touched — their writer goroutines own their metronome state.
func (tr *Tracer) SetMetronome(every sim.Duration) {
	if every < 0 {
		panic(fmt.Sprintf("obs: negative metronome interval %v", every))
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.metroEvery = every
}

// LiveSnapshot collects the most recent publication of every scope
// that has published, in scope-creation order. Unlike Snapshot it is
// safe to call while simulations are running: it only loads immutable
// published snapshots and never touches live accumulators. Scopes that
// have not yet published are omitted.
func (tr *Tracer) LiveSnapshot() Snapshot {
	var out Snapshot
	for _, s := range tr.Scopes() {
		if ls := s.Live(); ls != nil {
			out.Scopes = append(out.Scopes, *ls)
		}
	}
	return out
}

// liveState is the scope's publication machinery, embedded in Scope.
// pubSeq is the seqlock-style stamp (odd while a publication is being
// built), live the current immutable publication.
type liveState struct {
	pubSeq atomic.Uint64
	live   atomic.Pointer[ScopeSnapshot]
	// metronome state; owned by the writer goroutine.
	metroEvery sim.Duration
	metroNext  sim.Time
}
