package nicbarrier_test

import (
	"fmt"
	"log"

	"nicbarrier"
)

// Quickstart: reproduce the paper's headline numbers in a few lines.
//
//	go test -run Example_quickstart -v .
func Example_quickstart() {
	const warmup, iters = 100, 2000

	measure := func(ic nicbarrier.Interconnect, scheme nicbarrier.Scheme) float64 {
		res, err := nicbarrier.MeasureBarrier(nicbarrier.Config{
			Interconnect: ic,
			Nodes:        8,
			Scheme:       scheme,
			Algorithm:    nicbarrier.Dissemination,
			Permute:      true,
		}, warmup, iters)
		if err != nil {
			log.Fatal(err)
		}
		return res.MeanMicros
	}

	nicXP := measure(nicbarrier.MyrinetLANaiXP, nicbarrier.NICCollective)
	hostXP := measure(nicbarrier.MyrinetLANaiXP, nicbarrier.HostBased)
	fmt.Printf("Myrinet LANai-XP, 8 nodes:  NIC-based %5.2fus, host-based %5.2fus (%.2fx)\n",
		nicXP, hostXP, hostXP/nicXP)
	fmt.Println("   paper reports:           NIC-based 14.20us,              (2.64x)")

	nicQ := measure(nicbarrier.QuadricsElan3, nicbarrier.NICCollective)
	gsyncQ := measure(nicbarrier.QuadricsElan3, nicbarrier.HostBased)
	fmt.Printf("Quadrics Elan3,   8 nodes:  NIC-based %5.2fus, elan_gsync %5.2fus (%.2fx)\n",
		nicQ, gsyncQ, gsyncQ/nicQ)
	fmt.Println("   paper reports:           NIC-based  5.60us,              (2.48x)")

	// Output:
	// Myrinet LANai-XP, 8 nodes:  NIC-based 13.93us, host-based 37.66us (2.70x)
	//    paper reports:           NIC-based 14.20us,              (2.64x)
	// Quadrics Elan3,   8 nodes:  NIC-based  5.64us, elan_gsync 14.44us (2.56x)
	//    paper reports:           NIC-based  5.60us,              (2.48x)
}
