package nicbarrier_test

import (
	"fmt"
	"log"

	"nicbarrier"
)

// Scalability modeling (the paper's Section 8.3 / Fig. 8): measure the
// NIC-based dissemination barrier at power-of-two sizes, fit
//
//	T = Tinit + (ceil(log2 N)-1)*Ttrig + Tadj
//
// and extrapolate to 1024 nodes next to the paper's published models
// (22.13us Quadrics, 38.94us Myrinet).
//
//	go test -run Example_scalability -v .
func Example_scalability() {
	for _, ic := range []nicbarrier.Interconnect{
		nicbarrier.QuadricsElan3,
		nicbarrier.MyrinetLANaiXP,
	} {
		fitted, err := nicbarrier.FitScalabilityModel(ic, 1024, nicbarrier.Quick)
		if err != nil {
			log.Fatal(err)
		}
		paper, _ := nicbarrier.PaperModel(ic)
		fmt.Printf("%s\n", ic)
		fmt.Printf("  fitted: %s\n", fitted.Equation)
		fmt.Printf("  paper:  %s\n", paper.Equation)
		fmt.Printf("  @1024:  fitted %.2fus, paper %.2fus\n\n",
			fitted.Predict(1024), paper.Predict(1024))
	}
	fmt.Println("Both models step with ceil(log2 N): a thousand-node barrier costs only")
	fmt.Println("~9 trigger latencies beyond a two-node one — the scalability argument")
	fmt.Println("for NIC-based collectives on next-generation clusters.")

	// Output:
	// quadrics-elan3
	//   fitted: T = 2.25 + (ceil(log2 N)-1)*2.11 - 0.67
	//   paper:  T = 2.25 + (ceil(log2 N)-1)*2.32 - 1.00
	//   @1024:  fitted 20.60us, paper 22.13us
	//
	// myrinet-lanai-xp
	//   fitted: T = 6.98 + (ceil(log2 N)-1)*3.95 - 0.76
	//   paper:  T = 3.60 + (ceil(log2 N)-1)*3.50 + 3.84
	//   @1024:  fitted 41.76us, paper 38.94us
	//
	// Both models step with ceil(log2 N): a thousand-node barrier costs only
	// ~9 trigger latencies beyond a two-node one — the scalability argument
	// for NIC-based collectives on next-generation clusters.
}
