package harness

import (
	"fmt"
	"math"
	"strings"

	"nicbarrier/internal/barrier"
	"nicbarrier/internal/comm"
	"nicbarrier/internal/elan"
	"nicbarrier/internal/hwprofile"
	"nicbarrier/internal/myrinet"
)

// Row is one paper-vs-measured comparison. Indentation in Metric
// (leading spaces) means "derived from the row above" — it both groups
// the rendered table visually and nests the exported metric name under
// the parent row in Table.ToPoints. Rows that are independent absolute
// measurements must not be indented, or their report metric would claim
// a false parent.
type Row struct {
	Metric   string
	Unit     string
	Paper    float64
	Measured float64
}

// Delta reports the relative deviation from the paper's value.
func (r Row) Delta() float64 {
	if r.Paper == 0 {
		return math.NaN()
	}
	return (r.Measured - r.Paper) / r.Paper
}

// Table is a rendered comparison table (the Section 8 headline numbers).
type Table struct {
	ID    string
	Title string
	Rows  []Row
	Notes []string
}

// Render produces an aligned text table with deviations.
func (t Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	fmt.Fprintf(&b, "%-52s %8s %9s %7s\n", "metric", "paper", "measured", "delta")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-52s %6.2f%s %7.2f%s %+6.1f%%\n",
			r.Metric, r.Paper, r.Unit, r.Measured, r.Unit, r.Delta()*100)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// summary regenerates every headline number from the paper's Section 8
// prose and abstract, next to this reproduction's measurements.
func summary(cfg Config) Table {
	xp := hwprofile.LANaiXPCluster()
	l9 := hwprofile.LANai91Cluster()
	hostDS := comm.GroupConfig{MyrinetScheme: myrinet.SchemeHost, Algorithm: barrier.Dissemination}

	quadNIC := measureBarrier(cfg, nil, 8, 8, chainedDS, nil)
	quadGsync := measureBarrier(cfg, nil, 8, 8, comm.GroupConfig{ElanScheme: elan.SchemeGsync, Algorithm: barrier.GatherBroadcast}, nil)
	quadHW := measureBarrier(cfg, nil, 8, 8, comm.GroupConfig{ElanScheme: elan.SchemeHW, Algorithm: barrier.Dissemination}, nil)

	xpNIC := measureBarrier(cfg, &xp, 8, 8, nicDS, nil)
	xpHost := measureBarrier(cfg, &xp, 8, 8, hostDS, nil)

	l9NIC := measureBarrier(cfg, &l9, 16, 16, nicDS, nil)
	l9Host := measureBarrier(cfg, &l9, 16, 16, hostDS, nil)

	// Fit the scalability models from measured sweeps and extrapolate.
	quadModel := mustFitScalability(cfg, nil).Model
	myriModel := mustFitScalability(cfg, &xp).Model

	return Table{
		ID:    "summary",
		Title: "Section 8 headline numbers, paper vs this reproduction",
		Rows: []Row{
			{"Quadrics NIC-based barrier, 8 nodes", "us", 5.60, quadNIC},
			{"  improvement over elan_gsync tree barrier", "x", 2.48, quadGsync / quadNIC},
			// Not indented: an independent absolute measurement of a
			// different scheme, not a quantity derived from the row above
			// (indentation nests metric names in ToPoints).
			{"elan_hgsync hardware barrier, 8 nodes", "us", 4.20, quadHW},
			{"Myrinet LANai-XP NIC-based barrier, 8 nodes", "us", 14.20, xpNIC},
			{"  improvement over host-based barrier", "x", 2.64, xpHost / xpNIC},
			{"Myrinet LANai 9.1 NIC-based barrier, 16 nodes", "us", 25.72, l9NIC},
			{"  improvement over host-based barrier", "x", 3.38, l9Host / l9NIC},
			{"Model: Quadrics Ttrig", "us", 2.32, quadModel.Ttrig},
			{"Model: Quadrics barrier at 1024 nodes", "us", 22.13, quadModel.Predict(1024)},
			{"Model: Myrinet Ttrig", "us", 3.50, myriModel.Ttrig},
			{"Model: Myrinet barrier at 1024 nodes", "us", 38.94, myriModel.Predict(1024)},
		},
		Notes: []string{
			"measured on the simulated substrates described in ARCHITECTURE.md",
			"fitted models: quadrics " + quadModel.String() + "; myrinet " + myriModel.String(),
		},
	}
}
