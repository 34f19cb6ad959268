package nicbarrier_test

import (
	"fmt"
	"log"

	"nicbarrier"
)

// NIC-based allreduce (the paper's Section 9 asks whether collectives
// beyond barrier benefit from the NIC-level protocol — this answers it
// for single-word reductions): the operand rides the same static packet
// as the barrier integer, combining happens in the operation's bit-vector
// send record, and receiver-driven NACK retransmission resends the
// recorded snapshot so values are never double-counted.
//
//	go test -run Example_allreduce -v .
func Example_allreduce() {
	const nodes = 8
	barrierRes, err := nicbarrier.MeasureBarrier(nicbarrier.Config{
		Interconnect: nicbarrier.MyrinetLANaiXP,
		Nodes:        nodes,
		Scheme:       nicbarrier.NICCollective,
		Algorithm:    nicbarrier.PairwiseExchange,
	}, 50, 1000)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("NIC collectives over %d Myrinet LANai-XP nodes (recursive doubling)\n\n", nodes)
	fmt.Printf("%12s %14s %20s\n", "operation", "latency (us)", "vs plain barrier")
	fmt.Printf("%12s %14.2f %20s\n", "barrier", barrierRes.MeanMicros, "1.00x")
	for _, op := range []nicbarrier.ReduceOperator{nicbarrier.Sum, nicbarrier.Min, nicbarrier.Max} {
		res, err := nicbarrier.MeasureAllreduce(nicbarrier.Config{
			Interconnect: nicbarrier.MyrinetLANaiXP,
			Nodes:        nodes,
			Algorithm:    nicbarrier.PairwiseExchange,
		}, op, 50, 1000)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%12s %14.2f %19.2fx\n",
			"allreduce-"+op.String(), res.MeanMicros, res.MeanMicros/barrierRes.MeanMicros)
	}

	// Exactness under loss: every result is self-checked inside
	// MeasureAllreduce; retransmissions carry recorded snapshots.
	res, err := nicbarrier.MeasureAllreduce(nicbarrier.Config{
		Interconnect: nicbarrier.MyrinetLANaiXP,
		Nodes:        nodes,
		Algorithm:    nicbarrier.PairwiseExchange,
		LossRate:     0.05,
		Seed:         11,
	}, nicbarrier.Sum, 10, 500)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nunder 5%% packet loss: %d retransmissions over %d allreduces,\n",
		res.Retransmissions, res.Iterations)
	fmt.Println("every result still exact (self-checked against the reference reduction).")
	fmt.Println("\nA single-word allreduce costs the same as a barrier: the NIC protocol")
	fmt.Println("generalizes beyond synchronization, answering the paper's future work.")

	// Output:
	// NIC collectives over 8 Myrinet LANai-XP nodes (recursive doubling)
	//
	//    operation   latency (us)     vs plain barrier
	//      barrier          13.93                1.00x
	// allreduce-sum          13.93                1.00x
	// allreduce-min          13.93                1.00x
	// allreduce-max          13.93                1.00x
	//
	// under 5% packet loss: 1932 retransmissions over 500 allreduces,
	// every result still exact (self-checked against the reference reduction).
	//
	// A single-word allreduce costs the same as a barrier: the NIC protocol
	// generalizes beyond synchronization, answering the paper's future work.
}
