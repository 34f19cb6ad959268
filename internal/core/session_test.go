package core

import (
	"reflect"
	"testing"

	"nicbarrier/internal/sim"
)

// post is one Start call the driver made: absolute operation seq on rank.
type post struct{ rank, seq int }

// fakeBackend records the driver's calls; operations complete only when
// a test calls Complete, unless autoComplete finishes each one on post.
type fakeBackend struct {
	s            *Session
	autoComplete bool

	posts      []post
	aborted    []int
	uninstalls int
	charges    int
}

func (f *fakeBackend) String() string { return "fake session" }

func (f *fakeBackend) Start(rank, seq, _ int) {
	if f.autoComplete {
		f.s.Complete(rank, seq)
		return
	}
	f.posts = append(f.posts, post{rank, seq})
}

func (f *fakeBackend) Abort(rank int) { f.aborted = append(f.aborted, rank) }
func (f *fakeBackend) Uninstall()     { f.uninstalls++ }
func (f *fakeBackend) ChargeInstall() { f.charges++ }

func fakeSession(size int, mode Mode) (*sim.Engine, *Session, *fakeBackend) {
	eng := sim.NewEngine()
	f := &fakeBackend{}
	f.s = NewSession(eng, size, f, mode)
	return eng, f.s, f
}

func wantPosts(t *testing.T, f *fakeBackend, want ...post) {
	t.Helper()
	if !reflect.DeepEqual(f.posts, want) {
		t.Fatalf("posts %v, want %v", f.posts, want)
	}
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	fn()
}

// Chained members post k+1 on their own completion of k; gated members
// wait until every member completed k.
func TestSessionChainedVersusGated(t *testing.T) {
	_, s, f := fakeSession(3, Chained)
	s.Launch(2)
	wantPosts(t, f, post{0, 0}, post{1, 0}, post{2, 0})
	s.Complete(1, 0)
	wantPosts(t, f, post{0, 0}, post{1, 0}, post{2, 0}, post{1, 1})

	_, s, f = fakeSession(3, Gated)
	s.Launch(2)
	s.Complete(1, 0)
	s.Complete(0, 0)
	wantPosts(t, f, post{0, 0}, post{1, 0}, post{2, 0})
	s.Complete(2, 0)
	wantPosts(t, f, post{0, 0}, post{1, 0}, post{2, 0}, post{0, 1}, post{1, 1}, post{2, 1})
	for r := range 3 {
		s.Complete(r, 1)
	}
	if !s.Done() {
		t.Fatal("gated run not done after every member completed both iterations")
	}
}

// An OnIterDone callback that resets and relaunches the session voids
// the old run's chained posts: the completing member must not post into
// the new run on top of the new run's own openers.
func TestSessionRelaunchInOnIterDoneVoidsChainedPosts(t *testing.T) {
	for _, mode := range []Mode{Chained, Gated} {
		_, s, f := fakeSession(2, mode)
		relaunched := false
		s.OnIterDone = func(iter int, _ sim.Time) {
			if !relaunched {
				relaunched = true
				s.Reset()
				s.Launch(3)
			}
		}
		s.Launch(1)
		s.Complete(0, 0)
		s.Complete(1, 0)
		// The new run starts at absolute sequence 1; only its openers post.
		wantPosts(t, f, post{0, 0}, post{1, 0}, post{0, 1}, post{1, 1})
		if got := s.StartAt(); len(got) != 3 {
			t.Fatalf("mode %d: relaunched run tracks %d iterations, want 3", mode, len(got))
		}
	}
}

// Abort cancels a pending NextAt deferral, so the deferred post never
// fires; it then freezes every member in rank order, and a completion
// racing the abort is void.
func TestSessionAbortCancelsDeferral(t *testing.T) {
	eng, s, f := fakeSession(2, Chained)
	s.NextAt = func(_, next int) sim.Time {
		if next == 0 {
			return 0
		}
		return sim.Time(0).Add(sim.Micros(10))
	}
	s.Launch(2)
	s.Complete(0, 0) // rank 0 defers iteration 1 to t=10us
	if eng.Pending() != 1 {
		t.Fatalf("%d events pending, want the one deferral", eng.Pending())
	}
	s.Abort()
	eng.Run()
	wantPosts(t, f, post{0, 0}, post{1, 0})
	if !reflect.DeepEqual(f.aborted, []int{0, 1}) {
		t.Fatalf("aborted ranks %v, want [0 1]", f.aborted)
	}
	s.Complete(1, 0) // late completion: ignored, no panic
	mustPanic(t, "Launch after Abort", func() { s.Launch(1) })
	s.Close()
	if f.uninstalls != 1 {
		t.Fatalf("%d uninstalls, want 1", f.uninstalls)
	}
}

// A deferred post fires at its NextAt instant, and the operation's
// start stamp is the deferred post time, not the completion before it.
func TestSessionDeferredPostFires(t *testing.T) {
	eng, s, f := fakeSession(1, Chained)
	at := sim.Time(0).Add(sim.Micros(5))
	s.NextAt = func(_, next int) sim.Time {
		if next == 0 {
			return 0
		}
		return at
	}
	s.Launch(2)
	s.Complete(0, 0)
	wantPosts(t, f, post{0, 0})
	eng.Run()
	wantPosts(t, f, post{0, 0}, post{0, 1})
	if got := s.StartAt()[1]; got != at {
		t.Fatalf("iteration 1 started at %v, want %v", got, at)
	}
}

// Results sessions keep one value per iteration and rank; others drop
// SetResult.
func TestSessionResults(t *testing.T) {
	_, s, _ := fakeSession(2, Results)
	s.Launch(1)
	s.SetResult(1, 0, 42)
	if got := s.Results(); got[0][1] != 42 {
		t.Fatalf("results %v", got)
	}
	_, s, _ = fakeSession(2, Chained)
	s.Launch(1)
	s.SetResult(1, 0, 42)
	if s.Results() != nil {
		t.Fatal("chained session collected results")
	}
}

func TestSessionGuards(t *testing.T) {
	_, s, _ := fakeSession(2, Chained)
	mustPanic(t, "zero iterations", func() { s.Launch(0) })
	s.Launch(1)
	s.Complete(0, 0)
	mustPanic(t, "launched twice", func() { s.Launch(1) })
	mustPanic(t, "Close mid-run", func() { s.Close() })
	mustPanic(t, "Reset mid-run", func() { s.Reset() })
	mustPanic(t, "completion beyond iters", func() { s.Complete(0, 1) })
	s.Complete(1, 0)
	mustPanic(t, "double completion", func() { s.Complete(1, 0) })

	_, s, f := fakeSession(2, Chained)
	s.ChargeInstall()
	s.Close()
	if f.charges != 1 || f.uninstalls != 1 {
		t.Fatalf("charges %d, uninstalls %d", f.charges, f.uninstalls)
	}
	mustPanic(t, "Launch on a closed session", func() { s.Launch(1) })
	mustPanic(t, "closed twice", func() { s.Close() })
	s.Abort() // closed: no-op
	if len(f.aborted) != 0 {
		t.Fatalf("abort of a closed session froze ranks %v", f.aborted)
	}
}

// BenchmarkSessionDeferredOp gates the driver's NextAt-deferred chained
// loop at zero allocations per operation: every post is deferred, the
// per-rank deferral record is the scheduled sim.Event, and the fake
// backend completes each operation the moment it posts.
func BenchmarkSessionDeferredOp(b *testing.B) {
	const size, warmup = 4, 8
	eng := sim.NewEngine()
	f := &fakeBackend{autoComplete: true}
	s := NewSession(eng, size, f, Chained)
	f.s = s
	s.NextAt = func(int, int) sim.Time { return eng.Now().Add(sim.Micros(1)) }
	s.Launch(warmup + b.N)
	eng.RunCondition(func() bool { return s.DoneAt()[warmup-1] != 0 })
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run()
	if !s.Done() {
		b.Fatal("deferred loop incomplete")
	}
}
