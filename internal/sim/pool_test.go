package sim

import "testing"

type poolRec struct {
	a int
	p *int
}

// A chunk hands out distinct zero records. Each new chunk holds between
// chunkMin and chunkMax records, and grows with the records made so far
// until it reaches chunkMax.
func TestChunkZeroedAndBounded(t *testing.T) {
	var c Chunk[poolRec]
	seen := make(map[*poolRec]bool)
	largest := 0
	for i := 0; i < 5*chunkMax; i++ {
		fresh := len(c.spare) == 0
		x := c.New()
		if *x != (poolRec{}) {
			t.Fatalf("record %d is %+v, want zero", i, *x)
		}
		if seen[x] {
			t.Fatalf("record %d handed out twice", i)
		}
		seen[x] = true
		x.a, x.p = i, &i
		if !fresh {
			continue
		}
		size := len(c.spare) + 1
		if size < chunkMin || size > chunkMax {
			t.Fatalf("chunk started after %d records holds %d, want %d to %d", i, size, chunkMin, chunkMax)
		}
		if size < largest {
			t.Fatalf("chunk started after %d records holds %d, less than an earlier %d", i, size, largest)
		}
		largest = size
	}
	if largest != chunkMax {
		t.Fatalf("largest chunk %d after %d records, want %d", largest, c.made, chunkMax)
	}
}

// Records put back come back zeroed, the list counts only records put
// back (never the chunk's unused tail), and Get reuses them before
// carving.
func TestChunkedFreeListLen(t *testing.T) {
	var f ChunkedFreeList[poolRec]
	if f.n != 0 {
		t.Fatalf("empty list holds %d", f.n)
	}
	v := 7
	a, b := f.Get(), f.Get()
	if f.n != 0 {
		t.Fatalf("%d held after carving two records, want 0", f.n)
	}
	a.a, a.p = 1, &v
	b.a, b.p = 2, &v
	f.Put(a)
	f.Put(b)
	if f.n != 2 {
		t.Fatalf("%d held after two Puts, want 2", f.n)
	}
	if x := f.Get(); x != b || *x != (poolRec{}) {
		t.Fatalf("Get returned %p %+v, want the last record put back (%p), zeroed", x, *x, b)
	}
	if f.n != 1 {
		t.Fatalf("%d held after reusing one record, want 1", f.n)
	}
	made := f.chunk.made
	f.Get()
	if f.chunk.made != made {
		t.Fatal("Get carved a new record while the list held one")
	}
}
