// Package core implements the paper's primary contribution: the NIC-based
// collective message passing protocol. It contains the pieces the paper
// identifies as the collective replacements for point-to-point processing:
//
//   - groups (Group) whose members the NIC models install into their
//     group-queue slot tables, one dedicated queue entry per group
//     (queuing done collectively — Section 3 "Queuing" and Section 6.1);
//   - a single send record per collective operation holding a bit vector
//     over peer messages (bookkeeping done collectively — Section 3
//     "Bookkeeping" and Section 6.3);
//   - the operation state machine that advances a barrier.Schedule as
//     notifications arrive, buffering one barrier ahead (the consecutive-
//     barrier case), with a session's state machines kept in one Arena;
//   - receiver-driven retransmission support: Missing() lists the peers
//     to NACK, HasSent() answers whether a NACK can be served (error
//     control done collectively — Section 3 "Flow/Error Control" and
//     Section 6.3).
//
// The package is engine-agnostic and cost-free: the Myrinet MCP model
// (internal/myrinet) and the Quadrics chained-RDMA model (internal/elan)
// both drive these state machines, charging their own processing costs.
package core

import "fmt"

// BitVector is a fixed-capacity bit set. The paper replaces per-packet
// send records with "a bit vector to record whether all the messages for
// a barrier operation are completed or not"; this is that vector.
type BitVector struct {
	bits []uint64
	n    int
	set  int
}

// NewBitVector returns a vector of n cleared bits.
func NewBitVector(n int) *BitVector {
	if n < 0 {
		panic(fmt.Sprintf("core: bit vector size %d", n))
	}
	return &BitVector{bits: make([]uint64, (n+63)/64), n: n}
}

// Len reports the vector capacity.
func (v *BitVector) Len() int { return v.n }

// Count reports how many bits are set.
func (v *BitVector) Count() int { return v.set }

func (v *BitVector) check(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("core: bit %d outside [0,%d)", i, v.n))
	}
}

// Set sets bit i, reporting whether it was previously clear.
func (v *BitVector) Set(i int) bool {
	v.check(i)
	w, m := i/64, uint64(1)<<(i%64)
	if v.bits[w]&m != 0 {
		return false
	}
	v.bits[w] |= m
	v.set++
	return true
}

// Get reports bit i.
func (v *BitVector) Get(i int) bool {
	v.check(i)
	return v.bits[i/64]&(uint64(1)<<(i%64)) != 0
}

// Full reports whether every bit is set.
func (v *BitVector) Full() bool { return v.set == v.n }

// Clear resets every bit.
func (v *BitVector) Clear() {
	for i := range v.bits {
		v.bits[i] = 0
	}
	v.set = 0
}

// Missing returns the indices of clear bits, in ascending order.
func (v *BitVector) Missing() []int {
	if v.Full() {
		return nil
	}
	out := make([]int, 0, v.n-v.set)
	for i := 0; i < v.n; i++ {
		if !v.Get(i) {
			out = append(out, i)
		}
	}
	return out
}
