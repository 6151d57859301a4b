// Command hbnd is the serving daemon: a TCP front end over the sharded
// serving cluster with bounded admission, deadline budgets, durable
// snapshot + tail-log restart, graceful SIGTERM drain, and live
// process-to-process handoff. See README "Running hbnd" for the
// protocol and overload semantics.
//
// Usage:
//
//	hbnd -addr :7420 -snapshot /var/lib/hbn/state.snap
//	hbnd -addr :7421 -snapshot /var/lib/hbn/standby.snap -standby
//	hbnd -addr :7420 -snapshot state.snap -metrics 127.0.0.1:9420
//
// -metrics serves Prometheus text-format metrics on /metrics and (with
// -pprof) the standard pprof handlers under /debug/pprof/, on a listener
// separate from the wire port. On graceful drain the metrics listener
// closes BEFORE the final snapshot is cut, so a scraper never observes a
// half-drained ledger: the last successful scrape reflects a state the
// drain snapshot is a superset of.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"hbn/internal/hbnd"
)

func main() {
	var cfg hbnd.Config
	flag.StringVar(&cfg.Addr, "addr", "127.0.0.1:7420", "TCP listen address")
	flag.StringVar(&cfg.SnapshotPath, "snapshot", "", "durable snapshot path (required)")
	flag.StringVar(&cfg.TailPath, "tail", "", "tail log path (default <snapshot>.tail)")
	flag.IntVar(&cfg.Switches, "switches", 4, "cold start: top-ring switch count")
	flag.IntVar(&cfg.ProcsPerRing, "procs", 4, "cold start: processors per leaf ring")
	flag.Int64Var(&cfg.RingBW, "ringbw", 4, "cold start: leaf ring bandwidth")
	flag.Int64Var(&cfg.SwitchBW, "switchbw", 8, "cold start: switch bandwidth")
	flag.IntVar(&cfg.NumObjects, "objects", 1024, "cold start: object count")
	flag.Int64Var(&cfg.EpochRequests, "epoch", 4096, "cold start: requests per epoch re-solve")
	flag.IntVar(&cfg.Threshold, "threshold", 3, "cold start: read-replication threshold")
	flag.IntVar(&cfg.Shards, "shards", 4, "cold start: serving shards")
	flag.IntVar(&cfg.Parallelism, "parallelism", 0, "worker bound for batch serving and the solver (0 = GOMAXPROCS); a batch fans out to more than one worker only at 512+ events per worker")
	flag.IntVar(&cfg.QueueCap, "queue", 64, "admission queue capacity: batches waiting to apply (full queue sheds)")
	flag.BoolVar(&cfg.Standby, "standby", false, "start as a warm standby awaiting a live handoff")
	metricsAddr := flag.String("metrics", "", "HTTP listen address for /metrics (empty disables)")
	pprofOn := flag.Bool("pprof", false, "also serve /debug/pprof on the -metrics listener")
	flag.Parse()

	if cfg.SnapshotPath == "" {
		fmt.Fprintln(os.Stderr, "hbnd: -snapshot is required")
		os.Exit(2)
	}
	logger := log.New(os.Stderr, "", log.LstdFlags|log.Lmicroseconds)
	cfg.Logf = logger.Printf

	d, err := hbnd.New(cfg)
	if err != nil {
		logger.Fatal(err)
	}
	if err := d.Listen(); err != nil {
		logger.Fatal(err)
	}
	logger.Printf("hbnd: listening on %s", d.Addr())

	// Optional HTTP observability listener (Prometheus /metrics, pprof).
	var metricsLn net.Listener
	if *metricsAddr != "" {
		metricsLn, err = net.Listen("tcp", *metricsAddr)
		if err != nil {
			logger.Fatal(err)
		}
		logger.Printf("hbnd: metrics on http://%s/metrics (pprof=%v)", metricsLn.Addr(), *pprofOn)
		go func() {
			srv := &http.Server{Handler: d.MetricsHandler(*pprofOn)}
			if err := srv.Serve(metricsLn); err != nil && err != http.ErrServerClosed &&
				!errorsIsClosed(err) {
				logger.Printf("hbnd: metrics server: %v", err)
			}
		}()
	}

	// SIGTERM/SIGINT → graceful drain: stop accepting, apply the admitted
	// batches, final snapshot, exit 0. A second signal force-exits. The
	// metrics listener closes FIRST: no scrape can race the final
	// snapshot and observe a half-drained ledger.
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		<-sigc
		logger.Printf("hbnd: signal received, draining")
		go func() {
			<-sigc
			logger.Printf("hbnd: second signal, forcing exit")
			os.Exit(1)
		}()
		if metricsLn != nil {
			metricsLn.Close()
		}
		if _, err := d.Drain(); err != nil {
			logger.Printf("hbnd: drain: %v", err)
			os.Exit(1)
		}
		os.Exit(0)
	}()

	if err := d.Serve(); err != nil {
		logger.Fatal(err)
	}
	// Listener closed by a drain in flight: wait for it to finish.
	select {}
}

// errorsIsClosed reports the "use of closed network connection" error
// the metrics server returns when the drain path closes its listener.
func errorsIsClosed(err error) bool {
	return errors.Is(err, net.ErrClosed)
}
