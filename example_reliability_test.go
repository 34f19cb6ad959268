package nicbarrier_test

import (
	"fmt"
	"log"

	"nicbarrier"
)

// Reliability study: Myrinet leaves reliable delivery to the NIC control
// program, and the paper's collective protocol replaces sender-side
// ACK/timeout bookkeeping with receiver-driven NACK retransmission
// (Section 6.3), halving the packets on the wire. This example injects
// random packet loss and shows both recovery paths doing their jobs, plus
// the steady-state packet accounting.
//
//	go test -run Example_reliability -v .
func Example_reliability() {
	const nodes = 8

	fmt.Println("packets per barrier, loss-free (8-node dissemination = 24 notifications):")
	for _, s := range []struct {
		name   string
		scheme nicbarrier.Scheme
	}{
		{"direct (data+ACK per message)", nicbarrier.NICDirect},
		{"collective (static packet, no ACKs)", nicbarrier.NICCollective},
	} {
		res, err := nicbarrier.MeasureBarrier(nicbarrier.Config{
			Interconnect: nicbarrier.MyrinetLANaiXP,
			Nodes:        nodes,
			Scheme:       s.scheme,
			Algorithm:    nicbarrier.Dissemination,
		}, 0, 50)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-38s %6.1f packets/barrier\n", s.name, res.PacketsPerBarrier)
	}

	fmt.Println("\nrecovery under random loss (collective scheme, receiver-driven NACK):")
	for _, rate := range []float64{0.01, 0.05, 0.10} {
		res, err := nicbarrier.MeasureBarrier(nicbarrier.Config{
			Interconnect: nicbarrier.MyrinetLANaiXP,
			Nodes:        nodes,
			Scheme:       nicbarrier.NICCollective,
			Algorithm:    nicbarrier.Dissemination,
			LossRate:     rate,
			Seed:         7,
		}, 5, 300)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  loss %4.1f%%: mean %7.2fus (max %8.2fus), %d retransmissions over %d barriers\n",
			rate*100, res.MeanMicros, res.MaxMicros, res.Retransmissions, res.Iterations)
	}
	fmt.Println("\nEvery barrier completed: lost notifications were re-requested by the")
	fmt.Println("receiver after its timeout and re-fired from the sender's bit-vector")
	fmt.Println("send record. The mean is dominated by the 400us NACK timeout — loss")
	fmt.Println("recovery is for correctness, not speed, exactly as in the real protocol.")

	// Output:
	// packets per barrier, loss-free (8-node dissemination = 24 notifications):
	//   direct (data+ACK per message)            48.0 packets/barrier
	//   collective (static packet, no ACKs)      24.0 packets/barrier
	//
	// recovery under random loss (collective scheme, receiver-driven NACK):
	//   loss  1.0%: mean   94.66us (max   806.67us), 470 retransmissions over 300 barriers
	//   loss  5.0%: mean  279.75us (max  1213.27us), 1179 retransmissions over 300 barriers
	//   loss 10.0%: mean  493.80us (max  2391.17us), 1688 retransmissions over 300 barriers
	//
	// Every barrier completed: lost notifications were re-requested by the
	// receiver after its timeout and re-fired from the sender's bit-vector
	// send record. The mean is dominated by the 400us NACK timeout — loss
	// recovery is for correctness, not speed, exactly as in the real protocol.
}
