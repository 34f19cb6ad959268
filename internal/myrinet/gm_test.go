package myrinet

import (
	"testing"

	"nicbarrier/internal/barrier"
	"nicbarrier/internal/netsim"
)

// rescripted replays one ScriptedLoss script per run: the test swaps in
// a fresh ScriptedLoss before each run of a repeated session. It counts
// the packets it drops by kind, since their payloads are lost to the
// garbage collector.
type rescripted struct {
	*netsim.ScriptedLoss
	lost map[string]int
}

func (l *rescripted) Drop(pkt netsim.Packet) bool {
	if l.ScriptedLoss.Drop(pkt) {
		l.lost[pkt.Kind]++
		return true
	}
	return false
}

// GM payload ownership under loss, the p2p counterpart of
// TestPayloadOwnershipUnderNackEscalation. Each run of an 8-node
// host-based barrier drops its 4th and 11th packet, a data packet and an
// ACK: the sender's timeout retransmits the data, and the ACK's sender
// retransmits a packet its receiver already accepted, which the sequence
// check drops (SeqDrops). GM receivers do not ACK a duplicate, so the
// record whose ACK was lost keeps retransmitting for the rest of the
// test, and no ACK ever arrives twice (DupAcks stays 0). The stuck
// records' retransmissions shift later runs' drops onto other packets.
// Every injection takes its own payload, so the counters must keep the
// values the unpooled model produced for this script. And no free list
// may ever hold more than its pool held after the first run: what the
// free list held then plus what was out of it once the run had settled,
// which is the stuck send records and the payloads lost with dropped
// packets. A payload returned twice would push its list past that.
// (Send tokens share the data payloads' list: a token is the data
// message before it is numbered.)
func TestGMPayloadOwnershipUnderLoss(t *testing.T) {
	const (
		nodes = 8
		iters = 4
		runs  = 5
	)
	want := []struct{ retransmits, seqDrops uint64 }{
		{7, 6}, {19, 17}, {37, 34}, {60, 56}, {89, 84},
	}
	loss := &rescripted{lost: map[string]int{}}
	_, cl := xpCluster(nodes, loss)
	s := NewSession(cl, identity(nodes), SchemeHost, barrier.Dissemination, barrier.Options{})
	var size [3]int // each pool's size after the first run
	for run := 0; run < runs; run++ {
		loss.ScriptedLoss = &netsim.ScriptedLoss{DropNth: map[int]bool{3: true, 10: true}}
		if run > 0 {
			s.Reset()
		}
		s.Run(iters) // panics unless every barrier completes
		// Let the run's stragglers settle: ACKs, send-done events and a
		// few rounds of the stuck records' retransmissions.
		cl.Eng.RunUntil(cl.Eng.Now().Add(4 * cl.Prof.NIC.RetransmitTimeout))
		st := cl.Stats()
		if st.Retransmits != want[run].retransmits || st.SeqDrops != want[run].seqDrops || st.DupAcks != 0 {
			t.Errorf("run %d: Retransmits %d, SeqDrops %d, DupAcks %d; want %d, %d, 0",
				run, st.Retransmits, st.SeqDrops, st.DupAcks, want[run].retransmits, want[run].seqDrops)
		}
		if c := cl.Net.Counters(); c.Sent != c.Delivered+c.Dropped {
			t.Fatalf("run %d: %d packets still in flight after settling", run, c.Sent-c.Delivered-c.Dropped)
		}
		p := &cl.pool
		free := [3]int{p.records.Len(), p.data.Len(), p.acks.Len()}
		if run == 0 {
			stuck := 0
			for _, node := range cl.Nodes {
				stuck += len(node.NIC.records)
			}
			if free[0] == 0 || free[1] == 0 || free[2] == 0 || stuck == 0 {
				t.Fatalf("first run: free lists %v, %d stuck records", free, stuck)
			}
			size = [3]int{free[0] + stuck, free[1] + loss.lost["data"], free[2] + loss.lost["ack"]}
			continue
		}
		for i, name := range []string{"send record", "token and data payload", "ACK payload"} {
			if free[i] > size[i] {
				t.Errorf("run %d: %s free list holds %d, more than the first run's pool of %d",
					run, name, free[i], size[i])
			}
		}
	}
}
