package core

import (
	"fmt"
	"slices"
	"testing"

	"nicbarrier/internal/barrier"
	"nicbarrier/internal/sim"
)

// The map-based OpState and ReduceState that the schedule-indexed forms
// replaced are kept here, unchanged but for their names, as the reference
// model of TestOpStateMatchesReference and FuzzOpState: arrival bits
// keyed by rank through maps, a flag per step for sends, an early set and
// a pending-value map for operation seq+1. The model keeps its own
// per-rank schedule with absolute peer ranks, read once out of the plan
// view under test (barrier's TestPlanMatchesReference pins those views to
// the per-rank constructors they replaced).

// refSchedule is one rank's schedule with absolute peer ranks.
type refSchedule struct {
	Algorithm barrier.Algorithm
	N         int
	Rank      int
	Steps     []refStep
}

type refStep struct {
	Send       []int
	Wait       []int
	ResultWait bool
}

// refScheduleOf copies a plan view into absolute per-step lists.
func refScheduleOf(s barrier.Schedule) refSchedule {
	ref := refSchedule{Algorithm: s.Algorithm(), N: s.Size(), Rank: s.Rank()}
	for i := range s.Steps() {
		var wait []int
		bit := 0
		if i > 0 {
			bit = s.WaitEnd(i - 1)
		}
		for ; bit < s.WaitEnd(i); bit++ {
			wait = append(wait, s.Sender(bit))
		}
		ref.Steps = append(ref.Steps, refStep{
			Send:       s.AppendSends(nil, i),
			Wait:       wait,
			ResultWait: s.ResultWait(i),
		})
	}
	return ref
}

func (s refSchedule) ExpectedArrivals() []int {
	var out []int
	for _, st := range s.Steps {
		out = append(out, st.Wait...)
	}
	return out
}

type refOpState struct {
	sched refSchedule

	seq    int
	active bool
	step   int
	sent   []bool

	arrived  []bool
	rankBit  map[int]int
	sendStep map[int]int

	buf []int

	early map[int]bool

	Duplicates int
	Stale      int
}

func newRefOpState(sched refSchedule) *refOpState {
	o := &refOpState{
		sched:    sched,
		seq:      -1,
		sent:     make([]bool, len(sched.Steps)),
		rankBit:  make(map[int]int),
		sendStep: make(map[int]int),
		early:    make(map[int]bool),
	}
	for _, r := range sched.ExpectedArrivals() {
		if _, dup := o.rankBit[r]; dup {
			panic(fmt.Sprintf("core: schedule waits twice on rank %d", r))
		}
		o.rankBit[r] = len(o.rankBit)
	}
	for i, st := range sched.Steps {
		for _, dst := range st.Send {
			if _, dup := o.sendStep[dst]; dup {
				panic(fmt.Sprintf("core: schedule sends twice to rank %d", dst))
			}
			o.sendStep[dst] = i
		}
	}
	o.arrived = make([]bool, len(o.rankBit))
	return o
}

func (o *refOpState) Seq() int { return o.seq }

func (o *refOpState) Active() bool { return o.active }

func (o *refOpState) Step() int { return o.step }

func (o *refOpState) Start(seq int) (sends []int, completed bool, err error) {
	if o.active {
		return nil, false, fmt.Errorf("core: Start(%d) while op %d active", seq, o.seq)
	}
	if seq != o.seq+1 {
		return nil, false, fmt.Errorf("core: Start(%d) after op %d", seq, o.seq)
	}
	o.seq = seq
	o.active = true
	o.step = 0
	for i := range o.sent {
		o.sent[i] = false
	}
	clear(o.arrived)
	for r := range o.early {
		bit, ok := o.rankBit[r]
		if !ok {
			return nil, false, fmt.Errorf("core: buffered arrival from unexpected rank %d", r)
		}
		o.arrived[bit] = true
	}
	clear(o.early)
	sends, completed = o.advance()
	return sends, completed, nil
}

func (o *refOpState) Arrive(seq, fromRank int) (sends []int, completed bool, err error) {
	switch {
	case seq <= o.seq-1 || (seq == o.seq && !o.active):
		o.Stale++
		return nil, false, nil
	case seq == o.seq && o.active:
		bit, ok := o.rankBit[fromRank]
		if !ok {
			return nil, false, fmt.Errorf("core: arrival from unexpected rank %d", fromRank)
		}
		if o.arrived[bit] {
			o.Duplicates++
			return nil, false, nil
		}
		o.arrived[bit] = true
		sends, completed = o.advance()
		return sends, completed, nil
	case seq == o.seq+1:
		if _, ok := o.rankBit[fromRank]; !ok {
			return nil, false, fmt.Errorf("core: early arrival from unexpected rank %d", fromRank)
		}
		if o.early[fromRank] {
			o.Duplicates++
			return nil, false, nil
		}
		o.early[fromRank] = true
		return nil, false, nil
	default:
		return nil, false, fmt.Errorf("core: arrival for op %d while at op %d (impossible lookahead)", seq, o.seq)
	}
}

func (o *refOpState) advance() (sends []int, completed bool) {
	o.buf = o.buf[:0]
	completed = true
	for o.step < len(o.sched.Steps) {
		st := o.sched.Steps[o.step]
		if !o.sent[o.step] {
			o.sent[o.step] = true
			o.buf = append(o.buf, st.Send...)
		}
		done := true
		for _, w := range st.Wait {
			if !o.arrived[o.rankBit[w]] {
				done = false
				break
			}
		}
		if !done {
			completed = false
			break
		}
		o.step++
	}
	if completed {
		o.active = false
	}
	if len(o.buf) == 0 {
		return nil, completed
	}
	return o.buf, completed
}

func (o *refOpState) Abort() {
	o.active = false
	o.step = len(o.sched.Steps)
	clear(o.early)
}

func (o *refOpState) Missing() []int {
	if !o.active {
		return nil
	}
	o.buf = o.buf[:0]
	bit := 0
	for _, st := range o.sched.Steps {
		for _, r := range st.Wait {
			if !o.arrived[bit] {
				o.buf = append(o.buf, r)
			}
			bit++
		}
	}
	if len(o.buf) == 0 {
		return nil
	}
	return o.buf
}

func (o *refOpState) HasSent(seq, toRank int) bool {
	step, sendsToRank := o.sendStep[toRank]
	if !sendsToRank {
		return false
	}
	switch {
	case seq < o.seq || (seq == o.seq && !o.active):
		return true
	case seq == o.seq:
		return o.sent[step]
	default:
		return false
	}
}

type refReduceState struct {
	op    ReduceOp
	st    *refOpState
	sched refSchedule

	local    int64
	valueOf  map[int]int64
	waitStep map[int]int
	sendTo   map[int]refSendSlot
	pending  map[int]int64

	sent [2]refSentSnap
}

type refSendSlot struct{ step, idx int }

type refSentSnap struct {
	seq  []int
	vals []int64
}

func newRefReduceState(op ReduceOp, sched refSchedule) (*refReduceState, error) {
	if op == ReduceSum && sched.Algorithm == barrier.Dissemination && !barrier.IsPowerOfTwo(sched.N) {
		return nil, fmt.Errorf(
			"core: sum-allreduce over dissemination needs a power-of-two group, got %d", sched.N)
	}
	r := &refReduceState{
		op:       op,
		st:       newRefOpState(sched),
		sched:    sched,
		valueOf:  make(map[int]int64),
		waitStep: make(map[int]int),
		sendTo:   make(map[int]refSendSlot),
		pending:  make(map[int]int64),
	}
	for i, step := range sched.Steps {
		for _, w := range step.Wait {
			r.waitStep[w] = i
		}
		for _, d := range step.Send {
			r.sendTo[d] = refSendSlot{step: i, idx: len(r.sendTo)}
		}
	}
	for i := range r.sent {
		r.sent[i] = refSentSnap{seq: make([]int, len(r.sendTo)), vals: make([]int64, len(r.sendTo))}
		for d := range r.sent[i].seq {
			r.sent[i].seq[d] = -1
		}
	}
	return r, nil
}

func (r *refReduceState) Inner() *refOpState { return r.st }

func (r *refReduceState) fold(uptoStep int) int64 {
	val := r.local
	for s := 0; s < uptoStep && s < len(r.sched.Steps); s++ {
		step := r.sched.Steps[s]
		for _, w := range step.Wait {
			v, arrived := r.valueOf[w]
			if !arrived {
				continue
			}
			if step.ResultWait {
				val = v
			} else {
				val = r.op.Combine(val, v)
			}
		}
	}
	return val
}

func (r *refReduceState) Value() int64 { return r.fold(len(r.sched.Steps)) }

func (r *refReduceState) SentValue(seq, toRank int) (int64, bool) {
	slot, ok := r.sendTo[toRank]
	if !ok || seq < 0 {
		return 0, false
	}
	snap := &r.sent[seq%2]
	if snap.seq[slot.idx] != seq {
		return 0, false
	}
	return snap.vals[slot.idx], true
}

func (r *refReduceState) recordSends(seq int, sends []int) {
	snap := &r.sent[seq%2]
	for _, to := range sends {
		slot := r.sendTo[to]
		snap.seq[slot.idx] = seq
		snap.vals[slot.idx] = r.fold(slot.step)
	}
}

func (r *refReduceState) Start(seq int, local int64) (sends []int, completed bool, err error) {
	r.local = local
	clear(r.valueOf)
	sends, completed, err = r.st.Start(seq)
	if err != nil {
		return nil, false, err
	}
	for from, v := range r.pending {
		r.valueOf[from] = v
		delete(r.pending, from)
	}
	r.recordSends(seq, sends)
	return sends, completed, nil
}

func (r *refReduceState) Arrive(seq, fromRank int, value int64) (sends []int, completed bool, err error) {
	dupsBefore := r.st.Duplicates + r.st.Stale
	active := r.st.Active() && r.st.Seq() == seq
	future := seq == r.st.Seq()+1
	sends, completed, err = r.st.Arrive(seq, fromRank)
	if err != nil {
		return nil, false, err
	}
	if r.st.Duplicates+r.st.Stale > dupsBefore {
		return sends, completed, nil
	}
	switch {
	case active:
		r.valueOf[fromRank] = value
		r.recordSends(seq, sends)
	case future:
		if r.sched.Steps[r.waitStep[fromRank]].ResultWait {
			return nil, false, fmt.Errorf(
				"core: result message from rank %d arrived before operation %d started", fromRank, seq)
		}
		r.pending[fromRank] = value
	}
	return sends, completed, nil
}

// opScript is one differential run decoded from bytes: a schedule, a
// state-machine flavour and a script of Start, Arrive and Abort calls.
type opScript struct {
	data []byte
}

// next consumes one byte; an exhausted script reads zeros.
func (s *opScript) next() byte {
	if len(s.data) == 0 {
		return 0
	}
	b := s.data[0]
	s.data = s.data[1:]
	return b
}

// schedule decodes a plan view: dissemination, pairwise exchange,
// gather-broadcast or a broadcast tree, over 1-70 ranks, or over up to
// 32,768 ranks when the first byte is 0xc0 or above.
func (s *opScript) schedule() barrier.Schedule {
	first := s.next()
	kind, n, rank := first%4, int(s.next())%70+1, int(s.next())
	if first >= 0xc0 {
		n = (int(s.next())<<8|int(s.next()))%32768 + 1
		rank = rank<<8 | int(s.next())
	}
	rank %= n
	shape := int(s.next())
	degree := 2 + shape%4
	var plan *barrier.Plan
	switch kind {
	case 3:
		plan = barrier.NewBroadcastPlan(n, shape/4%n, degree)
	case 2:
		plan = barrier.NewPlan(barrier.GatherBroadcast, n, barrier.Options{TreeDegree: degree})
	default:
		plan = barrier.NewPlan(barrier.Algorithm(kind), n, barrier.Options{})
	}
	return plan.Rank(rank)
}

// runOpScript runs one script on the state machine and the reference
// model side by side and reports the first divergence in sends,
// completion, errors, Missing, HasSent, SentValue, Value, Duplicates or
// Stale. Every caller treats an error as fatal, so the script stops at
// the first one (after checking that both sides reported it). Aborted
// allreduce groups are never restarted (recovery installs a fresh group),
// so the script stops calling Start on them.
func runOpScript(data []byte) error {
	s := &opScript{data: data}
	sched := s.schedule()
	ref := refScheduleOf(sched)
	mode := s.next() % 4 // 0: barrier OpState; 1-3: ReduceState over op mode-1
	var (
		got     *OpState
		want    *refOpState
		red     *ReduceState
		refRed  *refReduceState
		aborted bool
	)
	if mode == 0 {
		got, want = NewOpState(sched), newRefOpState(ref)
	} else {
		var err, refErr error
		red, err = newReduceState(ReduceOp(mode-1), sched)
		refRed, refErr = newRefReduceState(ReduceOp(mode-1), ref)
		if fmt.Sprint(err) != fmt.Sprint(refErr) {
			return fmt.Errorf("NewReduceState: error %v, reference %v", err, refErr)
		}
		if err != nil {
			return nil
		}
		got, want = &red.st, refRed.Inner()
	}
	waits := ref.ExpectedArrivals()
	for step := 0; len(s.data) > 0 && step < 300; step++ {
		var sends, refSends []int
		var done, refDone bool
		var err, refErr error
		var call string
		cur := want.Seq()
		switch a := s.next(); a % 8 {
		case 0, 1:
			seq := cur + 1
			if a >= 0xf0 {
				seq = cur + int(a)%3 // cur, cur+1 or cur+2: exercises the Start errors
			}
			if red != nil && aborted {
				continue
			}
			call = fmt.Sprintf("Start(%d)", seq)
			if red == nil {
				sends, done, err = got.Start(seq)
				sends = slices.Clone(sends)
				refSends, refDone, refErr = want.Start(seq)
			} else {
				local := int64(int8(s.next()))
				sends, done, err = red.Start(seq, local)
				sends = slices.Clone(sends)
				refSends, refDone, refErr = refRed.Start(seq, local)
			}
		case 2, 3, 4, 5:
			seq := cur + []int{-2, -1, 0, 0, 0, 1, 1}[s.next()%7]
			if a >= 0xf0 {
				seq = cur + 2 // impossible lookahead
			}
			from := int(s.next())
			if len(waits) > 0 && from < 0xf8 {
				from = waits[from%len(waits)]
			} else {
				from = from%(ref.N+2) - 1 // any rank, or one outside the group
			}
			call = fmt.Sprintf("Arrive(%d, %d)", seq, from)
			if red == nil {
				sends, done, err = got.Arrive(seq, from)
				sends = slices.Clone(sends)
				refSends, refDone, refErr = want.Arrive(seq, from)
			} else {
				value := int64(int8(s.next()))
				sends, done, err = red.Arrive(seq, from, value)
				sends = slices.Clone(sends)
				refSends, refDone, refErr = refRed.Arrive(seq, from, value)
			}
		case 6:
			call = "Abort"
			got.Abort()
			want.Abort()
			aborted = true
		default:
			call = "no-op"
		}
		if !slices.Equal(sends, refSends) || done != refDone || fmt.Sprint(err) != fmt.Sprint(refErr) {
			return fmt.Errorf("%s: sends %v done %v err %v; reference %v %v %v",
				call, sends, done, err, refSends, refDone, refErr)
		}
		if err != nil {
			return nil
		}
		if err := compareOpState(got, want, red, refRed, ref); err != nil {
			return fmt.Errorf("after %s: %w", call, err)
		}
	}
	return nil
}

// compareOpState checks every observable of the two state machines.
func compareOpState(got *OpState, want *refOpState, red *ReduceState, refRed *refReduceState, sched refSchedule) error {
	if got.Seq() != want.Seq() || got.Active() != want.Active() || int(got.step) != want.Step() {
		return fmt.Errorf("seq/active/step %d %v %d; reference %d %v %d",
			got.Seq(), got.Active(), got.step, want.Seq(), want.Active(), want.Step())
	}
	if got.Duplicates() != want.Duplicates || got.Stale() != want.Stale {
		return fmt.Errorf("duplicates/stale %d %d; reference %d %d",
			got.Duplicates(), got.Stale(), want.Duplicates, want.Stale)
	}
	if m, ref := slices.Clone(got.Missing()), want.Missing(); !slices.Equal(m, ref) {
		return fmt.Errorf("Missing %v; reference %v", m, ref)
	}
	// Destinations, expected senders (often not destinations) and two
	// ranks outside the group.
	ranks := append(append([]int{-1, sched.N}, sched.ExpectedArrivals()...), dests(sched)...)
	for seq := want.Seq() - 2; seq <= want.Seq()+1; seq++ {
		for _, to := range ranks {
			if g, w := got.HasSent(seq, to), want.HasSent(seq, to); g != w {
				return fmt.Errorf("HasSent(%d, %d) = %v; reference %v", seq, to, g, w)
			}
			if red == nil {
				continue
			}
			v, ok := red.SentValue(seq, to)
			rv, rok := refRed.SentValue(seq, to)
			if v != rv || ok != rok {
				return fmt.Errorf("SentValue(%d, %d) = %d, %v; reference %d, %v", seq, to, v, ok, rv, rok)
			}
		}
	}
	if red != nil && red.Value() != refRed.Value() {
		return fmt.Errorf("Value %d; reference %d", red.Value(), refRed.Value())
	}
	return nil
}

func dests(sched refSchedule) []int {
	var out []int
	for _, st := range sched.Steps {
		out = append(out, st.Send...)
	}
	return out
}

// TestOpStateMatchesReference runs random scripts over every schedule
// kind and flavour against the map-based reference model.
func TestOpStateMatchesReference(t *testing.T) {
	rng := sim.NewRNG(14)
	for i := 0; i < 3000; i++ {
		data := make([]byte, 5+rng.Intn(400))
		for j := range data {
			data[j] = byte(rng.Intn(256))
		}
		if err := runOpScript(data); err != nil {
			t.Fatalf("script %d (%x): %v", i, data, err)
		}
	}
}

// FuzzOpState fuzzes the same differential check; the seed corpus in
// testdata/fuzz/FuzzOpState covers every schedule kind and flavour.
func FuzzOpState(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := runOpScript(data); err != nil {
			t.Fatal(err)
		}
	})
}
