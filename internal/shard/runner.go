package shard

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"nicbarrier/internal/sim"
)

// msg is one cross-shard message: an event the destination shard must
// schedule at virtual time At. The (From, At, Seq) triple totally
// orders all messages a shard receives in a window — Seq is a
// per-source running counter, so two messages from the same shard at
// the same virtual time are delivered in the order they were sent, and
// messages from different shards are ordered by shard ID. That total
// order is what makes multi-partition runs reproducible: delivery
// order never depends on goroutine interleaving.
type msg struct {
	From int      // source shard ID
	At   sim.Time // virtual delivery time (≥ the window end it was sent in)
	Seq  uint64   // per-source sequence number, assigned by runner.send
	Op   int      // sequence number of the collective operation it belongs to
}

// compareMsg orders messages by (From, At, Seq).
func compareMsg(a, b msg) int {
	if c := cmp.Compare(a.From, b.From); c != 0 {
		return c
	}
	if c := cmp.Compare(a.At, b.At); c != 0 {
		return c
	}
	return cmp.Compare(a.Seq, b.Seq)
}

// runner drives one sim.Engine per shard through conservative
// lookahead windows. Each window [W, W+L) — L being the lookahead —
// runs the engines of all participating shards concurrently, one
// persistent worker goroutine per shard; the conservative invariant
// (no cross-shard message can be delivered inside the window it was
// sent in) means the shards cannot observe each other mid-window, so
// the parallelism is free of both data races and result races. A
// shard's sends go to its own per-destination outboxes, which only its
// worker writes during a window; at the window barrier the coordinator
// collects each destination's messages from every outbox and sorts
// them by (From, At, Seq) — fixing the batch of messages each shard
// sees at that barrier independently of goroutine timing — and then
// computes the next window start as the minimum over all shards of the
// next pending event or message time, so idle stretches of virtual
// time are skipped in one jump rather than stepped through L
// nanoseconds at a time.
//
// Workers are spawned once per Run and woken per window through a
// 1-slot channel carrying the window end, rather than re-spawning a
// goroutine per shard per window: at 64k endpoints a run executes
// hundreds of windows, and the spawn/teardown churn (stack setup,
// scheduler handoff, WaitGroup traffic for provably idle shards) was
// measurable wall-clock. A shard with no drained messages and no
// engine event before the window end is not woken at all — its
// engine's earliest-event time is cached at the barrier by its worker,
// so the coordinator's min scan costs one comparison for an idle
// shard. Skipping the wake leaves the idle engine's clock behind the
// global window edge; that is unobservable, because handlers only read
// their engine's clock inside event context (where it equals the event
// time) and cross-shard deliveries are scheduled at absolute times.
//
// A runner is not safe for concurrent use by multiple coordinators;
// Send is safe exactly where the model needs it to be: from shard
// goroutines during a window.
type runner struct {
	look   sim.Duration
	winEnd sim.Time // end of the window currently (or last) executed
	shards []runnerShard

	windows uint64
	wg      sync.WaitGroup // window acks: one Done per woken worker
	workers sync.WaitGroup // worker lifetimes; Run exits leak-free
}

type runnerShard struct {
	eng     *sim.Engine
	deliver func(msg)
	seq     uint64  // per-source sequence; touched only by this shard's goroutine
	out     [][]msg // out[to]: sent this window; written only by this shard's goroutine
	pending []msg   // barrier-collected batch, reused across windows

	// wake carries the window end to this shard's persistent worker.
	// Capacity 1 so the coordinator never blocks: the worker has always
	// consumed the previous wake before the barrier completes.
	wake chan sim.Time

	// nextAt/hasNext cache eng.NextAt() between windows. The worker
	// refreshes them after RunUntil; the coordinator reads them at the
	// barrier (when no worker is running) and skips waking shards whose
	// next event lies at or beyond the window end. An engine is only
	// mutated by its own worker, so the cache of a skipped shard stays
	// valid across any number of windows.
	nextAt  sim.Time
	hasNext bool

	// delivered counts messages actually handed to deliver, incremented
	// immediately before each callback on the worker goroutine — so
	// delivered() read from inside a deliver callback already includes
	// the message being delivered, and never counts a drained-but-not-
	// yet-delivered batch.
	delivered atomic.Uint64
}

// newRunner builds a runner over one engine per shard. lookahead must
// be positive (use minCrossLatency); deliver is invoked on the
// destination shard's goroutine at the start of a window, once per
// inbound message in (From, At, Seq) order, and must only touch that
// shard's state — typically it schedules a handler on engines[shard]
// at m.At.
func newRunner(lookahead sim.Duration, engines []*sim.Engine, deliver func(shard int, m msg)) *runner {
	if lookahead <= 0 {
		panic(fmt.Sprintf("shard: non-positive lookahead %v", lookahead))
	}
	if len(engines) == 0 {
		panic("shard: runner with no shards")
	}
	r := &runner{look: lookahead, shards: make([]runnerShard, len(engines))}
	for i, e := range engines {
		i := i
		sh := &r.shards[i]
		sh.eng = e
		sh.deliver = func(m msg) { deliver(i, m) }
		sh.out = make([][]msg, len(engines))
	}
	return r
}

// delivered reports how many cross-shard messages have been handed to
// deliver callbacks. Counting happens at delivery, so a read from
// inside a deliver callback sees the in-flight message already counted
// and none of the batch still waiting behind it.
func (r *runner) delivered() uint64 {
	var n uint64
	for i := range r.shards {
		n += r.shards[i].delivered.Load()
	}
	return n
}

// send posts a cross-shard message of operation op from shard `from`
// to shard `to`, to take effect at virtual time `at` on the
// destination. It must be called from shard from's goroutine while a
// window is executing (or from the coordinator's goroutine between
// Runs), and at must lie at or beyond the window's end — the
// conservative invariant. A violation panics: it means the claimed
// lookahead was larger than the model's true minimum cross-shard
// latency, which would silently corrupt causality if allowed through.
func (r *runner) send(from, to int, at sim.Time, op int) {
	if at < r.winEnd {
		panic(fmt.Sprintf("shard: lookahead violation: %d→%d at %v inside window ending %v",
			from, to, at, r.winEnd))
	}
	sh := &r.shards[from]
	sh.seq++
	sh.out[to] = append(sh.out[to], msg{From: from, At: at, Seq: sh.seq, Op: op})
}

// worker is one shard's persistent goroutine: deliver the barrier-fixed
// batch, run the engine through the window, refresh the next-event
// cache, ack. It exits when the coordinator closes the wake channel at
// the end of Run.
func (r *runner) worker(sh *runnerShard) {
	defer r.workers.Done()
	for end := range sh.wake {
		for _, m := range sh.pending {
			sh.delivered.Add(1)
			sh.deliver(m)
		}
		sh.pending = sh.pending[:0]
		// RunUntil is inclusive, so end-1 keeps the window half-open:
		// events at exactly `end` belong to the next window.
		sh.eng.RunUntil(end - 1)
		sh.nextAt, sh.hasNext = sh.eng.NextAt()
		r.wg.Done()
	}
}

// run executes windows until no shard has pending events or messages,
// or until stop (checked at every barrier; nil means never) reports
// true. Each barrier: collect the outboxes, pick the earliest next
// event or message time W across shards (cached next-event times make
// an idle shard one comparison), wake the workers of shards with work
// before W+lookahead, wait for their acks, repeat.
func (r *runner) run(stop func() bool) {
	for i := range r.shards {
		sh := &r.shards[i]
		sh.wake = make(chan sim.Time, 1)
		// Prime the next-event cache: the harness may have scheduled
		// events directly on the engines since the previous Run.
		sh.nextAt, sh.hasNext = sh.eng.NextAt()
		r.workers.Add(1)
		go r.worker(sh)
	}
	defer func() {
		for i := range r.shards {
			close(r.shards[i].wake)
		}
		r.workers.Wait()
	}()

	for {
		if stop != nil && stop() {
			return
		}
		// Barrier phase: no shard goroutine is running, so collecting
		// the outboxes is race-free and the batch each shard will see is
		// fixed here — exactly the messages sent in prior windows —
		// rather than depending on how far sibling goroutines had gotten.
		haveWork := false
		var next sim.Time
		for i := range r.shards {
			sh := &r.shards[i]
			for j := range r.shards {
				out := &r.shards[j].out[i]
				sh.pending = append(sh.pending, *out...)
				*out = (*out)[:0]
			}
			slices.SortFunc(sh.pending, compareMsg)
			for _, m := range sh.pending {
				if !haveWork || m.At < next {
					haveWork, next = true, m.At
				}
			}
			if sh.hasNext && (!haveWork || sh.nextAt < next) {
				haveWork, next = true, sh.nextAt
			}
		}
		if !haveWork {
			return
		}
		end := next.Add(r.look)
		r.winEnd = end
		r.windows++

		for i := range r.shards {
			sh := &r.shards[i]
			if len(sh.pending) == 0 && !(sh.hasNext && sh.nextAt < end) {
				continue // idle this window: nothing to deliver or run
			}
			r.wg.Add(1)
			sh.wake <- end
		}
		r.wg.Wait()
	}
}
