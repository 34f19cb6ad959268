package shard

import (
	"slices"
	"strings"
	"testing"

	"nicbarrier/internal/sim"
)

// TestDeliveredCountsAtDelivery is the regression test for a counting
// bug: Delivered used to be bumped by the whole drained batch during
// the barrier phase, before any message had been handed to deliver, so
// a callback observing the counter saw messages that had not happened
// yet. The counter must tick once per message, immediately before its
// callback.
func TestDeliveredCountsAtDelivery(t *testing.T) {
	engines := []*sim.Engine{sim.NewEngine()}
	var seen []uint64
	var r *runner
	r = newRunner(10, engines, func(int, msg) {
		seen = append(seen, r.Delivered())
	})
	// Post a batch before the run: the outboxes are collected in one
	// barrier, so all three messages are delivered back to back in one
	// window.
	for i := 1; i <= 3; i++ {
		r.Send(0, 0, sim.Time(100*i), 0)
	}
	r.Run(nil)
	if len(seen) != 3 {
		t.Fatalf("delivered %d messages, want 3", len(seen))
	}
	for i, got := range seen {
		if want := uint64(i + 1); got != want {
			t.Fatalf("callback %d observed Delivered()=%d, want %d (batch counted before delivery?)",
				i, got, want)
		}
	}
	if r.Delivered() != 3 {
		t.Fatalf("final Delivered()=%d, want 3", r.Delivered())
	}
}

// TestSendLookaheadViolationMessage pins the panic's diagnostic
// content: a lookahead violation must name both shards, the offending
// time, and the window end — it fires deep inside a parallel run,
// where a bare panic would be undebuggable.
func TestSendLookaheadViolationMessage(t *testing.T) {
	engines := []*sim.Engine{sim.NewEngine(), sim.NewEngine()}
	r := newRunner(100, engines, func(int, msg) {})
	engines[0].Schedule(0, func() {
		defer func() {
			v := recover()
			if v == nil {
				t.Error("Send inside the window did not panic")
			} else if s, ok := v.(string); !ok || !strings.Contains(s, "lookahead violation") ||
				!strings.Contains(s, "0→1") {
				t.Errorf("panic %v does not identify the violation", v)
			}
			engines[0].Stop()
		}()
		r.Send(0, 1, 50, 0) // window is [0, 100); arrival at 50 violates
	})
	r.Run(nil)
}

// TestRunnerBatchOrder pins the barrier's merge key: a destination's
// batch, collected from several senders' outboxes in any send order,
// is delivered sorted by (From, At, Seq).
func TestRunnerBatchOrder(t *testing.T) {
	engines := []*sim.Engine{sim.NewEngine(), sim.NewEngine()}
	var got []msg
	r := newRunner(10, engines, func(_ int, m msg) { got = append(got, m) })
	r.Send(1, 0, 200, 0)
	r.Send(0, 0, 300, 1)
	r.Send(1, 0, 100, 2)
	r.Send(0, 0, 300, 3)
	r.Send(0, 0, 100, 4)
	r.Run(nil)
	want := []msg{
		{From: 0, At: 100, Seq: 3, Op: 4},
		{From: 0, At: 300, Seq: 1, Op: 1},
		{From: 0, At: 300, Seq: 2, Op: 3},
		{From: 1, At: 100, Seq: 2, Op: 2},
		{From: 1, At: 200, Seq: 1, Op: 0},
	}
	if !slices.Equal(got, want) {
		t.Fatalf("delivered %+v, want %+v", got, want)
	}
}

// benchTick is a self-rescheduling engine event: each firing schedules
// the next one `gap` later until the chain runs out. Pre-allocated so
// the steady state allocates nothing.
type benchTick struct {
	eng  *sim.Engine
	gap  sim.Duration
	left int
}

func (t *benchTick) Fire() {
	if t.left > 0 {
		t.left--
		t.eng.AfterEvent(t.gap, t)
	}
}

// BenchmarkRunnerWindow measures the per-window cost of the runner's
// barrier protocol — wake, engine window, next-event cache refresh,
// ack — with one active shard and three idle ones, so both the
// persistent-worker path and the idle-skip path are on the clock. The
// tick gap exceeds the lookahead, forcing every event into its own
// window. Gated at 0 allocs/op in CI: the window protocol itself must
// not allocate (the per-Run wake channels amortize to zero across b.N
// windows).
func BenchmarkRunnerWindow(b *testing.B) {
	const parts = 4
	engines := make([]*sim.Engine, parts)
	for i := range engines {
		engines[i] = sim.NewEngine()
	}
	r := newRunner(100, engines, func(int, msg) {})
	tick := &benchTick{eng: engines[0], gap: 1000, left: b.N}
	engines[0].ScheduleEvent(0, tick)
	// Idle shards with a far-future event each: their cached next-event
	// times are scanned at every barrier but never wake a worker until
	// the chain is exhausted.
	for _, e := range engines[1:] {
		e.Schedule(sim.Time(int64(b.N+1)*1000+1), func() {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	r.Run(nil)
}

// benchSender is a self-rescheduling engine event on shard 0 that sends
// shard 1 one cross-shard message per firing, one lookahead apart, so
// every window carries exactly one message.
type benchSender struct {
	r    *runner
	eng  *sim.Engine
	left int
}

func (s *benchSender) Fire() {
	if s.left > 0 {
		s.left--
		look := s.r.Lookahead()
		s.r.Send(0, 1, s.eng.Now().Add(look), s.left)
		s.eng.AfterEvent(look, s)
	}
}

// BenchmarkRunnerSend measures one cross-shard message end to end:
// Send into the sender's outbox, collection and ordering at the
// barrier, delivery on the destination's worker. Gated at 0 allocs/op
// in CI: outboxes and the delivery batch reuse their buffers, so a
// steady message stream allocates nothing per message.
func BenchmarkRunnerSend(b *testing.B) {
	engines := []*sim.Engine{sim.NewEngine(), sim.NewEngine()}
	r := newRunner(100, engines, func(int, msg) {})
	engines[0].ScheduleEvent(0, &benchSender{r: r, eng: engines[0], left: b.N})
	b.ReportAllocs()
	b.ResetTimer()
	r.Run(nil)
	if got := r.Delivered(); got != uint64(b.N) {
		b.Fatalf("delivered %d messages, want %d", got, b.N)
	}
}
