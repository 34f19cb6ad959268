package nicbarrier_test

import (
	"fmt"
	"log"

	"nicbarrier"
)

// Multitenant: several communicators share one simulated cluster, then
// a full workload sweep shows aggregate throughput scaling with tenant
// count — the concurrency the paper's per-group NIC queues exist for.
//
//	go test -run Example_multitenant -v .
func Example_multitenant() {
	cfg := nicbarrier.Config{
		Interconnect: nicbarrier.MyrinetLANaiXP,
		Nodes:        16,
		Scheme:       nicbarrier.NICCollective,
		Algorithm:    nicbarrier.Dissemination,
		Seed:         1,
	}

	// Two overlapping communicators on one cluster: each owns a NIC
	// group-queue slot on its members; nodes 2 and 3 serve both.
	c, err := nicbarrier.NewCluster(cfg)
	if err != nil {
		log.Fatal(err)
	}
	g1, err := c.NewGroup([]int{0, 1, 2, 3})
	if err != nil {
		log.Fatal(err)
	}
	g2, err := c.NewGroup([]int{2, 3, 4, 5, 6, 7})
	if err != nil {
		log.Fatal(err)
	}
	r1, err := g1.Barrier(10, 500)
	if err != nil {
		log.Fatal(err)
	}
	r2, err := g2.Allreduce(nicbarrier.Max, 10, 500)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("shared cluster: 4-rank barrier %.2fus, 6-rank allreduce %.2fus\n",
		r1.MeanMicros, r2.MeanMicros)

	// The throughput story: carve a 64-node cluster into more and more
	// concurrent tenant groups, all hammering back-to-back barriers.
	cfg.Nodes = 64
	fmt.Println("\ntenants  group-size  agg-kops/s  tenant-p50(us)  fairness")
	for _, tenants := range []int{1, 4, 16, 32} {
		res, err := nicbarrier.MeasureWorkload(cfg, nicbarrier.WorkloadSpec{
			Tenants:      tenants,
			OpsPerTenant: 200,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%7d %11d %11.0f %15.2f %9.3f\n",
			tenants, res.Tenants[0].GroupSize, res.AggregateOpsPerSec/1e3,
			res.Tenants[0].P50Micros, res.Fairness)
	}

	// Output:
	// shared cluster: 4-rank barrier 10.45us, 6-rank allreduce 13.93us
	//
	// tenants  group-size  agg-kops/s  tenant-p50(us)  fairness
	//       1          64          39           25.46     1.000
	//       4          16         222           18.01     1.000
	//      16           4        1484           10.70     1.000
	//      32           2        4483            7.13     1.000
}
