// Command chaossoak runs the seeded fail-stop chaos soak: for each seed
// it draws a randomized fault schedule (node crashes, partitions, burst
// loss, slow NICs), runs a multi-tenant collective workload under it
// with recovery armed, and checks the survival invariants — no
// deadlock, no unjustified eviction, exact allreduce across evictions,
// and leak-free teardown. Any violation prints its seed (which replays
// the run exactly) and fails the command.
//
// Examples:
//
//	chaossoak                          # 20 seeds on both backends
//	chaossoak -seeds 50 -backend myrinet
//	chaossoak -seed0 7 -seeds 1 -v    # replay one seed, verbose
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"nicbarrier/internal/chaos"
	"nicbarrier/internal/hwprofile"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("chaossoak", flag.ContinueOnError)
	fs.SetOutput(stderr)
	backend := fs.String("backend", "both", "backend under test: myrinet, quadrics, or both")
	seeds := fs.Int("seeds", 20, "number of consecutive seeds to soak")
	seed0 := fs.Uint64("seed0", 1, "first seed")
	nodes := fs.Int("nodes", 16, "cluster size")
	groups := fs.Int("groups", 4, "concurrent tenant groups")
	ops := fs.Int("ops", 12, "collective operations per group")
	crashes := fs.Int("crashes", 2, "max fail-stop crashes per schedule")
	partitions := fs.Int("partitions", 1, "max windowed partitions per schedule")
	noBurst := fs.Bool("no-burst", false, "disable burst-loss rules")
	noSlow := fs.Bool("no-slownic", false, "disable slow-NIC rules")
	verbose := fs.Bool("v", false, "print every run's schedule and counters")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "chaossoak: "+format+"\n", a...)
		return 1
	}
	// Each backend name soaks one testbed: Myrinet on LANai-XP.
	type testbed struct {
		name string
		tb   hwprofile.Testbed
	}
	myri, quad := testbed{"myrinet", hwprofile.LANaiXP}, testbed{"quadrics", hwprofile.Elan3}
	var backends []testbed
	switch *backend {
	case "myrinet":
		backends = []testbed{myri}
	case "quadrics", "elan":
		backends = []testbed{quad}
	case "both":
		backends = []testbed{myri, quad}
	default:
		return fail("unknown backend %q (myrinet, quadrics, both)", *backend)
	}
	if *seeds < 1 {
		return fail("-seeds must be at least 1")
	}

	runs, violations := 0, 0
	var evictions, retries, failedGroups int
	for _, b := range backends {
		for i := 0; i < *seeds; i++ {
			spec := chaos.Spec{
				Backend:       b.tb,
				Nodes:         *nodes,
				Groups:        *groups,
				OpsPerGroup:   *ops,
				Seed:          *seed0 + uint64(i),
				MaxCrashes:    *crashes,
				MaxPartitions: *partitions,
				BurstLoss:     !*noBurst,
				SlowNIC:       !*noSlow,
			}
			rep, err := chaos.Soak(spec)
			if err != nil {
				return fail("%s seed %d: %v", b.name, spec.Seed, err)
			}
			runs++
			evictions += rep.Evictions
			retries += rep.Retries
			failedGroups += rep.FailedGroups
			if *verbose || !rep.OK() {
				fmt.Fprintf(stdout, "%-8s seed %-4d ops=%-4d evict=%d retry=%d timeout=%d failed=%d  [%s]\n",
					b.name, rep.Seed, rep.OpsCompleted, rep.Evictions, rep.Retries,
					rep.Timeouts, rep.FailedGroups, rep.Schedule)
			}
			if !rep.OK() {
				violations += len(rep.Violations)
				for _, v := range rep.Violations {
					fmt.Fprintf(stdout, "  VIOLATION: %s\n", v)
				}
				fmt.Fprintf(stdout, "  replay: chaossoak -backend %s -seed0 %d -seeds 1 -v\n",
					b.name, rep.Seed)
			}
		}
	}
	fmt.Fprintf(stdout, "chaossoak: %d runs, %d evictions, %d retries, %d terminal failures\n",
		runs, evictions, retries, failedGroups)
	if violations > 0 {
		return fail("%d invariant violations", violations)
	}
	fmt.Fprintln(stdout, "chaossoak: all invariants held")
	return 0
}
