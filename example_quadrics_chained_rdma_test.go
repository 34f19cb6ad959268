package nicbarrier_test

import (
	"fmt"
	"log"

	"nicbarrier"
)

// Quadrics chained-RDMA barrier (the paper's Section 7): the NIC-based
// barrier on Elan3 is a list of chained RDMA descriptors armed from user
// level — each zero-byte RDMA fires a remote event, and that event
// triggers the next descriptor. No NIC thread, no host involvement until
// the final local event.
//
// This example walks Fig. 7: the chained barrier against Elanlib's
// gsync tree and the hardware-broadcast barrier, showing the crossover
// the paper describes (hardware barrier loses below ~8 nodes, wins
// beyond).
//
//	go test -run Example_quadrics_chained_rdma -v .
func Example_quadrics_chained_rdma() {
	measure := func(n int, scheme nicbarrier.Scheme) float64 {
		res, err := nicbarrier.MeasureBarrier(nicbarrier.Config{
			Interconnect: nicbarrier.QuadricsElan3,
			Nodes:        n,
			Scheme:       scheme,
			Algorithm:    nicbarrier.Dissemination,
		}, 50, 500)
		if err != nil {
			log.Fatal(err)
		}
		return res.MeanMicros
	}

	fmt.Println("Quadrics/Elan3 barrier latency (us) — cf. paper Fig. 7")
	fmt.Printf("%6s %16s %14s %16s\n", "N", "NIC-chained-RDMA", "elan_gsync", "elan_hgsync(HW)")
	for _, n := range []int{2, 4, 6, 8, 16, 64} {
		nic := measure(n, nicbarrier.NICCollective)
		gsync := measure(n, nicbarrier.HostBased)
		hw := measure(n, nicbarrier.HardwareBroadcast)
		marker := ""
		if hw < nic {
			marker = "  <- HW wins"
		}
		fmt.Printf("%6d %16.2f %14.2f %16.2f%s\n", n, nic, gsync, hw, marker)
	}
	fmt.Println()
	fmt.Println("The chained-RDMA barrier beats the host-driven tree everywhere (the")
	fmt.Println("paper's 2.48x at 8 nodes) and beats the hardware test-and-set barrier")
	fmt.Println("at small scale, where the HW transaction's fixed cost dominates. At 8+")
	fmt.Println("nodes the hardware barrier takes over — exactly the paper's reading,")
	fmt.Println("with the caveat that it requires well-synchronized processes.")

	// Output:
	// Quadrics/Elan3 barrier latency (us) — cf. paper Fig. 7
	//      N NIC-chained-RDMA     elan_gsync  elan_hgsync(HW)
	//      2             2.25           6.25             3.97
	//      4             3.89           7.81             3.97
	//      6             5.72          12.72             4.53  <- HW wins
	//      8             5.72          14.28             4.53  <- HW wins
	//     16             7.47          16.96             4.53  <- HW wins
	//     64            11.28          25.99             5.09  <- HW wins
	//
	// The chained-RDMA barrier beats the host-driven tree everywhere (the
	// paper's 2.48x at 8 nodes) and beats the hardware test-and-set barrier
	// at small scale, where the HW transaction's fixed cost dominates. At 8+
	// nodes the hardware barrier takes over — exactly the paper's reading,
	// with the caveat that it requires well-synchronized processes.
}
