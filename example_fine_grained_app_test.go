package nicbarrier_test

import (
	"fmt"
	"log"

	"nicbarrier"
)

// Fine-grained application study: the paper's introduction motivates
// NIC-based barriers with application granularity — "to support
// fine-grained parallel applications, an efficient barrier primitive
// must be provided". This example quantifies that: an iterative
// bulk-synchronous kernel alternates a compute phase of G microseconds
// with a global barrier; the barrier's share of each iteration decides
// how small G can get before synchronization dominates.
//
//	go test -run Example_fine_grained_app -v .
func Example_fine_grained_app() {
	const nodes = 8
	schemes := []struct {
		name   string
		scheme nicbarrier.Scheme
	}{
		{"host-based", nicbarrier.HostBased},
		{"nic-direct", nicbarrier.NICDirect},
		{"nic-collective", nicbarrier.NICCollective},
	}

	latency := map[string]float64{}
	for _, s := range schemes {
		res, err := nicbarrier.MeasureBarrier(nicbarrier.Config{
			Interconnect: nicbarrier.MyrinetLANaiXP,
			Nodes:        nodes,
			Scheme:       s.scheme,
			Algorithm:    nicbarrier.Dissemination,
			Permute:      true,
		}, 50, 1000)
		if err != nil {
			log.Fatal(err)
		}
		latency[s.name] = res.MeanMicros
	}

	fmt.Printf("bulk-synchronous kernel on %d Myrinet LANai-XP nodes\n", nodes)
	fmt.Printf("barrier latencies: host %.2fus, direct %.2fus, collective %.2fus\n\n",
		latency["host-based"], latency["nic-direct"], latency["nic-collective"])

	fmt.Printf("%12s | barrier share of one iteration\n", "grain (us)")
	fmt.Printf("%12s | %12s %12s %14s | speedup(coll vs host)\n",
		"", "host", "direct", "collective")
	for _, grain := range []float64{1000, 300, 100, 30, 10} {
		share := func(name string) float64 {
			b := latency[name]
			return b / (b + grain) * 100
		}
		iterHost := grain + latency["host-based"]
		iterColl := grain + latency["nic-collective"]
		fmt.Printf("%12.0f | %11.1f%% %11.1f%% %13.1f%% | %.2fx\n",
			grain, share("host-based"), share("nic-direct"), share("nic-collective"),
			iterHost/iterColl)
	}
	fmt.Println("\nAt 10us grains the host-based barrier eats ~79% of every iteration;")
	fmt.Println("the collective NIC barrier keeps the application usable at grain sizes")
	fmt.Println("3-4x smaller — the granularity argument of the paper's introduction.")

	// Output:
	// bulk-synchronous kernel on 8 Myrinet LANai-XP nodes
	// barrier latencies: host 37.67us, direct 31.84us, collective 13.93us
	//
	//   grain (us) | barrier share of one iteration
	//              |         host       direct     collective | speedup(coll vs host)
	//         1000 |         3.6%         3.1%           1.4% | 1.02x
	//          300 |        11.2%         9.6%           4.4% | 1.08x
	//          100 |        27.4%        24.1%          12.2% | 1.21x
	//           30 |        55.7%        51.5%          31.7% | 1.54x
	//           10 |        79.0%        76.1%          58.2% | 1.99x
	//
	// At 10us grains the host-based barrier eats ~79% of every iteration;
	// the collective NIC barrier keeps the application usable at grain sizes
	// 3-4x smaller — the granularity argument of the paper's introduction.
}
