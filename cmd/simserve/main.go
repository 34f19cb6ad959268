// Command simserve hosts the live observability plane: it runs
// registered harness scenarios (the same IDs barrier-bench lists) with
// a metronome-armed trace and serves their metrics over HTTP while they
// run.
//
// Endpoints:
//
//	/metrics   Prometheus text exposition (scrape it)
//	/snapshot  schema-versioned JSON snapshot (?run=<id|name>)
//	/stream    server-sent events, one snapshot per publication epoch
//	/runs      run registry with live progress
//	/healthz   liveness
//
// Examples:
//
//	simserve -list
//	simserve -addr :8077 -scenario churn-policies
//	simserve -scenario group-churn,faults-impair -loop   # soak: rerun forever, bumping seeds
//	curl -s localhost:8077/metrics | grep nicbarrier_ops_total
//	curl -s localhost:8077/snapshot | go run ./cmd/tracecheck -snapshot /dev/stdin
//
// Each run is the scenario at quick fidelity with the round's seed.
// Scenarios run one after another; the server keeps serving their final
// published state after they finish. With -once the process exits when
// the launched scenarios complete (CI smoke mode).
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"

	"nicbarrier/internal/harness"
	"nicbarrier/internal/metricsrv"
	"nicbarrier/internal/obs"
	"nicbarrier/internal/sim"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8077", "HTTP listen address (host:port; port 0 picks a free one)")
	listOnly := fs.Bool("list", false, "list scenarios and exit")
	names := fs.String("scenario", "all",
		"comma-separated scenario IDs to launch (see -list), or \"all\"")
	metronome := fs.Float64("metronome", 50,
		"live-snapshot publication period in simulated microseconds (0 disables mid-run snapshots)")
	seed := fs.Uint64("seed", 1, "base seed; -loop bumps it each round")
	loop := fs.Bool("loop", false, "rerun the scenarios forever, bumping the seed each round")
	once := fs.Bool("once", false, "exit when the launched scenarios complete (CI smoke mode)")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	if *listOnly {
		for _, s := range harness.Scenarios() {
			fmt.Fprintf(stdout, "  %-14s %s\n", s.ID, s.Title)
		}
		return 0
	}
	picked := harness.Scenarios()
	if *names != "all" {
		picked = nil
		for _, id := range strings.Split(*names, ",") {
			s, ok := harness.ScenarioByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(stderr, "simserve: unknown scenario %q (try -list)\n", id)
				return 1
			}
			picked = append(picked, s)
		}
	}
	if *loop && *once {
		fmt.Fprintln(stderr, "simserve: -loop and -once are mutually exclusive")
		return 1
	}
	if *metronome < 0 {
		fmt.Fprintf(stderr, "simserve: negative -metronome %g\n", *metronome)
		return 1
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "simserve: %v\n", err)
		return 1
	}
	srv := metricsrv.New()
	fmt.Fprintf(stdout, "simserve: listening on http://%s\n", ln.Addr())

	// Each run gets its own tracer (so /snapshot?run= views are
	// disjoint) with the metronome armed before any cluster exists. A
	// short per-track ring bounds the memory of the large sweeps.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for round := 0; ; round++ {
			for _, s := range picked {
				tr := obs.NewTracerSize(256)
				tr.SetMetronome(sim.Micros(*metronome))
				cfg := harness.Quick()
				cfg.Seed = *seed + uint64(round)
				cfg.Trace = tr
				name := s.ID
				if round > 0 {
					name = fmt.Sprintf("%s#%d", s.ID, round)
				}
				run := srv.Register(name, s.ID, tr)
				fmt.Fprintf(stdout, "simserve: run %d %q starting\n", run.ID, name)
				summary := fmt.Sprintf("%d metrics over %d scopes", len(s.Points(cfg)), len(tr.Scopes()))
				run.Finish(summary, nil)
				fmt.Fprintf(stdout, "simserve: run %d %q done: %s\n", run.ID, name, summary)
			}
			if !*loop {
				return
			}
		}
	}()

	if *once {
		// Serve while the scenarios run, exit when they finish.
		go http.Serve(ln, srv.Handler())
		<-done
		ln.Close()
		fmt.Fprintln(stdout, "simserve: scenarios complete")
		return 0
	}
	if err := http.Serve(ln, srv.Handler()); err != nil {
		fmt.Fprintf(stderr, "simserve: %v\n", err)
		return 1
	}
	return 0
}
