package barrier

import (
	"testing"
	"testing/quick"
)

func TestBroadcastTreeShapes(t *testing.T) {
	// n=13, root=0, degree=4: root sends to 1..4; rank 1 forwards to
	// 5..8; rank 12 is a leaf under rank 2.
	root := resolve(NewBroadcastPlan(13, 0, 4).Rank(0))
	if len(root) != 1 || len(root[0].Send) != 4 || len(root[0].Wait) != 0 {
		t.Fatalf("root schedule %+v", root)
	}
	interior := resolve(NewBroadcastPlan(13, 0, 4).Rank(1))
	if len(interior) != 2 {
		t.Fatalf("interior schedule %+v", interior)
	}
	if interior[0].Wait[0] != 0 || len(interior[0].Send) != 0 {
		t.Fatalf("interior step0 %+v", interior[0])
	}
	if len(interior[1].Send) != 4 {
		t.Fatalf("interior step1 %+v", interior[1])
	}
	leaf := resolve(NewBroadcastPlan(13, 0, 4).Rank(12))
	if len(leaf) != 1 || leaf[0].Wait[0] != 2 {
		t.Fatalf("leaf schedule %+v", leaf)
	}
}

func TestBroadcastNonZeroRoot(t *testing.T) {
	// Root 5 in a group of 8, degree 2: position space rotates.
	if err := VerifyBroadcast(8, 5, 2); err != nil {
		t.Fatal(err)
	}
	r := resolve(NewBroadcastPlan(8, 5, 2).Rank(5))
	if len(r) != 1 || len(r[0].Wait) != 0 {
		t.Fatalf("root schedule %+v", r)
	}
	// Root's children are positions 1,2 -> ranks 6,7.
	if r[0].Send[0] != 6 || r[0].Send[1] != 7 {
		t.Fatalf("root children %v", r[0].Send)
	}
}

func TestVerifyBroadcastMatrix(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 16, 33, 100} {
		for _, d := range []int{2, 4, 8} {
			for _, root := range []int{0, n / 2, n - 1} {
				if err := VerifyBroadcast(n, root, d); err != nil {
					t.Fatalf("n=%d d=%d root=%d: %v", n, d, root, err)
				}
			}
		}
	}
}

func TestBroadcastIsNotABarrier(t *testing.T) {
	// The full-knowledge check must fail for a broadcast (leaves never
	// hear from each other) — guarding against silently weakening Verify.
	if err := verifySchedules(NewBroadcastPlan(4, 0, 2).all(), "broadcast"); err == nil {
		t.Fatal("broadcast schedules passed the barrier synchronization check")
	}
}

func TestBroadcastGuards(t *testing.T) {
	for name, fn := range map[string]func(){
		"n=0":      func() { NewBroadcastPlan(0, 0, 2).Rank(0) },
		"bad rank": func() { NewBroadcastPlan(4, 0, 2).Rank(4) },
		"bad root": func() { NewBroadcastPlan(4, -1, 2).Rank(0) },
		"degree 1": func() { NewBroadcastPlan(4, 0, 1).Rank(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// Property: every (n, root, degree) verifies, and the total sends equal
// n-1 (each non-root rank is notified exactly once).
func TestBroadcastProperty(t *testing.T) {
	f := func(nRaw, rootRaw, dRaw uint8) bool {
		n := int(nRaw)%60 + 1
		root := int(rootRaw) % n
		d := int(dRaw)%6 + 2
		if VerifyBroadcast(n, root, d) != nil {
			return false
		}
		total := 0
		for _, s := range NewBroadcastPlan(n, root, d).all() {
			total += s.TotalSends()
		}
		return total == n-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
