package sim

// FreeList is a LIFO free list of *T records: pooled handler records,
// wire payloads and protocol records that would otherwise be allocated
// once per modelled step. The zero value is empty and ready to use.
// Like the engine, it belongs to a single goroutine.
type FreeList[T any] struct {
	free []*T
}

// Get returns a record from the list, or a new zero one when the list is
// empty. A reused record holds whatever Put left in it: the zero value.
func (f *FreeList[T]) Get() *T {
	if x := f.pop(); x != nil {
		return x
	}
	return new(T)
}

// pop takes the most recently put record, or returns nil when the list
// is empty.
func (f *FreeList[T]) pop() *T {
	k := len(f.free)
	if k == 0 {
		return nil
	}
	x := f.free[k-1]
	f.free = f.free[:k-1]
	return x
}

// Put zeroes x, dropping its references, and keeps it for reuse. The
// caller must hold no other reference to x.
func (f *FreeList[T]) Put(x *T) {
	var zero T
	*x = zero
	f.free = append(f.free, x)
}

// Chunk hands out zeroed *T records carved from shared backing arrays,
// so a pool that grows by many records at once (every rank of a large
// group posting at one instant) allocates once per chunk instead of
// once per record. Each new chunk holds half as many records as the
// chunk has made so far, between chunkMin and chunkMax, so the unused
// tail stays a bounded fraction of the pool.
//
// A chunk stays reachable while any record carved from it is, so only
// pools whose records always come back belong on one: a payload lost
// with a dropped packet would pin its whole chunk. The zero value is
// ready to use.
type Chunk[T any] struct {
	spare []T
	made  int
}

// Chunk sizes, in records.
const (
	chunkMin = 4
	chunkMax = 256
)

// New returns a zero record carved from the current chunk, starting a
// new chunk when it is used up.
func (c *Chunk[T]) New() *T {
	if len(c.spare) == 0 {
		c.spare = make([]T, min(max(c.made/2, chunkMin), chunkMax))
	}
	x := &c.spare[0]
	c.spare = c.spare[1:]
	c.made++
	return x
}

// ChunkedFreeList is a free list whose Get carves from a Chunk instead
// of allocating when the list is empty. It holds only the records put
// back, not the chunk's unused tail.
//
// Only records that always come back belong on it (see Chunk), so Get
// leaves a taken record's pointer behind in free[n:] instead of
// clearing it: the record stays reachable through its chunk either way.
// Keeping the count in n, and carving out of line, is what keeps Get
// within the compiler's inlining budget.
type ChunkedFreeList[T any] struct {
	free  []*T // free[:n] holds the records put back
	n     int
	chunk Chunk[T]
}

// Get returns a record from the list, or a zero one carved from the
// chunk when the list is empty.
func (f *ChunkedFreeList[T]) Get() *T {
	if f.n > 0 {
		f.n--
		return f.free[f.n]
	}
	return f.carve()
}

// carve is Get's cold path: a new record from the chunk.
//
//go:noinline
func (f *ChunkedFreeList[T]) carve() *T { return f.chunk.New() }

// Put zeroes x and keeps it for reuse. The caller must hold no other
// reference to x.
func (f *ChunkedFreeList[T]) Put(x *T) {
	var zero T
	*x = zero
	if f.n < len(f.free) {
		f.free[f.n] = x
	} else {
		f.free = append(f.free, x)
	}
	f.n++
}
