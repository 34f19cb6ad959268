package sim

import (
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.uint64() != b.uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	c := NewRNG(43)
	same := 0
	a.seed(42)
	for i := 0; i < 1000; i++ {
		if a.uint64() == c.uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/1000 identical draws", same)
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(7)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestRNGIntnUniformity(t *testing.T) {
	r := NewRNG(123)
	const n, draws = 8, 80000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := draws / n
	for i, c := range counts {
		if c < want*9/10 || c > want*11/10 {
			t.Fatalf("bucket %d has %d draws, want ~%d", i, c, want)
		}
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(99)
	sum := 0.0
	const draws = 50000
	for i := 0; i < draws; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
		sum += f
	}
	mean := sum / draws
	if mean < 0.48 || mean > 0.52 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

// Property: Perm always returns a permutation of [0, n).
func TestRNGPermProperty(t *testing.T) {
	r := NewRNG(5)
	f := func(nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := r.Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGPermShuffles(t *testing.T) {
	r := NewRNG(11)
	identity := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		p := r.Perm(8)
		isIdentity := true
		for j, v := range p {
			if v != j {
				isIdentity = false
				break
			}
		}
		if isIdentity {
			identity++
		}
	}
	// P(identity of 8) = 1/40320; 200 trials should essentially never hit it.
	if identity > 1 {
		t.Fatalf("identity permutation appeared %d/%d times", identity, trials)
	}
}

func TestRNGBool(t *testing.T) {
	r := NewRNG(3)
	if r.Bool(0) {
		t.Fatal("Bool(0) returned true")
	}
	if !r.Bool(1) {
		t.Fatal("Bool(1) returned false")
	}
	hits := 0
	const draws = 40000
	for i := 0; i < draws; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / draws
	if frac < 0.23 || frac > 0.27 {
		t.Fatalf("Bool(0.25) hit fraction = %v", frac)
	}
}
