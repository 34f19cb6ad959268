package sim

import (
	"testing"
	"unsafe"
)

// The engine keeps one timer slot per pending event, and a cluster
// reserves two per endpoint, so the slot's size is pinned: the key array
// entry (time 8, chain link 4, state 1) and the payload array entry
// (FIFO sequence 8, generation 8, event 16). Sizes are those of 64-bit
// platforms.
func TestRecordSizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("record sizes are pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(key{}) + unsafe.Sizeof(payload{}); got != 48 {
		t.Errorf("a timer slot is %d bytes, want 48 (key 16, payload 32): "+
			"if that is intended, pin the new size with its reason", got)
	}
}
