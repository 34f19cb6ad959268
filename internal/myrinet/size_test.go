package myrinet

import (
	"testing"
	"unsafe"

	"nicbarrier/internal/core"
)

// A cluster keeps one NIC and host record per endpoint, and one member
// and one core.OpState per endpoint and group; handler records scale
// with the operations in flight, which at a session launch is every
// rank. A field added to any of them is paid per endpoint, so their
// sizes are pinned here, each with what fills it, and growing one is a
// decision to make, not a side effect. The sizes are those of 64-bit
// platforms.
func TestRecordSizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("record sizes are pinned for 64-bit platforms")
	}
	for _, c := range []struct {
		name      string
		got, want uintptr
		why       string
	}{
		{"NIC", unsafe.Sizeof(NIC{}), 168,
			"processor 24; node, shared and GM-state pointers 24; group table 32; 11 NIC-level counters 88"},
		{"Host", unsafe.Sizeof(Host{}), 64,
			"processor 24; node and event hook 16; group bindings 24"},
		{"member", unsafe.Sizeof(member{}), 72,
			"NIC, session, group and state pointers 32; NACK timer 24; NACK sequence and round, rank, frozen flag 13"},
		{"handler", unsafe.Sizeof(handler{}), 72,
			"kinds 2; NIC, member and data pointers 24; node 8; notification 32, which also carries a host event"},
		{"core.OpState", unsafe.Sizeof(core.OpState{}), 56,
			"schedule 16; arena pointer 8; word offset, sequence, step, bit, sends cursor, duplicate and stale counts 28; active flag 1"},
	} {
		if c.got != c.want {
			t.Errorf("%s is %d bytes, want %d (%s): a per-endpoint record changed size; "+
				"if that is intended, pin the new size with its reason", c.name, c.got, c.want, c.why)
		}
	}
}
