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
	k := len(f.free)
	if k == 0 {
		return new(T)
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

// Len reports how many records the list holds.
func (f *FreeList[T]) Len() int { return len(f.free) }
