package nicbarrier_test

import (
	"fmt"
	"log"

	"nicbarrier"
)

// Fault-injection study: the paper's reliability contrast, under
// impairments richer than uniform random loss. Myrinet leaves reliability
// to the NIC control program, so every fault is recovered by
// receiver-driven NACK retransmission; Quadrics provides hardware
// reliability, so loss-type faults cannot touch it at all — while
// latency-type faults (a slow network, not a lossy one) reach both.
//
//	go test -run Example_faults -v .
func Example_faults() {
	const nodes = 16

	measure := func(ic nicbarrier.Interconnect, faults ...nicbarrier.Fault) nicbarrier.Result {
		res, err := nicbarrier.MeasureBarrier(nicbarrier.Config{
			Interconnect: ic,
			Nodes:        nodes,
			Scheme:       nicbarrier.NICCollective,
			Algorithm:    nicbarrier.Dissemination,
			Faults:       faults,
			Seed:         7,
		}, 5, 200)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	fmt.Printf("composable faults on a %d-node Myrinet barrier (LANai-XP, dissemination):\n", nodes)
	for _, c := range []struct {
		name   string
		faults []nicbarrier.Fault
	}{
		{"clean", nil},
		{"10% random loss", []nicbarrier.Fault{nicbarrier.FaultRandomLoss(0.10)}},
		{"5% loss in bursts of 4", []nicbarrier.Fault{nicbarrier.FaultBurstLoss(0.05, 4)}},
		{"partition 3<->7, healed at 200us", []nicbarrier.Fault{
			nicbarrier.FaultPartition(3, 7).Between(50, 200)}},
		{"node 5 crashed until 300us", []nicbarrier.Fault{
			nicbarrier.FaultCrash(5).Between(0, 300)}},
		{"node 0 NIC +5us per packet", []nicbarrier.Fault{nicbarrier.FaultSlowNIC(0, 5)}},
		{"loss + jitter composed", []nicbarrier.Fault{
			nicbarrier.FaultRandomLoss(0.02),
			nicbarrier.FaultDelay(0, 2),
		}},
	} {
		res := measure(nicbarrier.MyrinetLANaiXP, c.faults...)
		fmt.Printf("  %-34s mean %8.2fus  max %9.2fus  %5d drops  %5d retransmissions\n",
			c.name, res.MeanMicros, res.MaxMicros, res.DroppedPackets, res.Retransmissions)
	}

	fmt.Printf("\nthe same fault plans on Quadrics (hardware reliability):\n")
	for _, c := range []struct {
		name   string
		faults []nicbarrier.Fault
	}{
		{"clean", nil},
		{"20% random loss (stripped)", []nicbarrier.Fault{nicbarrier.FaultRandomLoss(0.20)}},
		{"2us jitter (latency passes through)", []nicbarrier.Fault{nicbarrier.FaultDelay(0, 2)}},
	} {
		res := measure(nicbarrier.QuadricsElan3, c.faults...)
		fmt.Printf("  %-34s mean %8.2fus  max %9.2fus  %5d drops\n",
			c.name, res.MeanMicros, res.MaxMicros, res.DroppedPackets)
	}
	fmt.Println("\nLoss-type faults are stripped by QsNet's hardware reliability (identical")
	fmt.Println("rows), latency-type faults are not: the contrast the paper draws between")
	fmt.Println("the two interconnects' reliability models, now as a runnable experiment.")

	// Output:
	// composable faults on a 16-node Myrinet barrier (LANai-XP, dissemination):
	//   clean                              mean    17.40us  max     17.40us      0 drops      0 retransmissions
	//   10% random loss                    mean   740.80us  max   2016.98us   2674 drops   2817 retransmissions
	//   5% loss in bursts of 4             mean   324.82us  max   1611.88us   1100 drops   1639 retransmissions
	//   partition 3<->7, healed at 200us   mean    19.84us  max     26.50us      2 drops     35 retransmissions
	//   node 5 crashed until 300us         mean    19.80us  max     19.80us      5 drops      5 retransmissions
	//   node 0 NIC +5us per packet         mean    22.41us  max     25.37us      0 drops      0 retransmissions
	//   loss + jitter composed             mean   281.16us  max   1218.57us    358 drops   1454 retransmissions
	//
	// the same fault plans on Quadrics (hardware reliability):
	//   clean                              mean     7.47us  max      7.50us      0 drops
	//   20% random loss (stripped)         mean     7.47us  max      7.50us      0 drops
	//   2us jitter (latency passes through) mean    12.60us  max     16.28us      0 drops
	//
	// Loss-type faults are stripped by QsNet's hardware reliability (identical
	// rows), latency-type faults are not: the contrast the paper draws between
	// the two interconnects' reliability models, now as a runnable experiment.
}
