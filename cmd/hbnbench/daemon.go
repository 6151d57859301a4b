package main

// -daemon mode: drive a LIVE hbnd daemon over its real TCP socket — the
// out-of-process twin of in-process Cluster.Ingest — and verify the
// conservation ledger from the outside: every event the daemon claims to
// have served is one a client saw acknowledged, the service cost matches
// the acknowledged batch costs, and ΣServiceLoad + dropped closes the
// books. CI uses this as the smoke harness: start hbnd, push requests,
// SIGTERM-drain it, restart from the drain snapshot, and re-invoke with
// -devents 0 to compare the recovered request count.

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"hbn/internal/obs"
	"hbn/internal/tree"
	"hbn/internal/wire"
	"hbn/internal/workload"
)

// daemonBenchOptions mirror the -d* flags.
type daemonBenchOptions struct {
	Addr     string
	Clients  int
	Batch    int
	Events   int64 // total offered events across all clients; 0 = stats only
	Budget   time.Duration
	Seed     int64
	Switches int // must match the daemon's topology flags
	Procs    int
	Objects  int
}

// jsonDaemonBench is the -daemon measurement in -json mode.
type jsonDaemonBench struct {
	Addr           string  `json:"addr"`
	Clients        int     `json:"clients"`
	Batch          int     `json:"batch"`
	OfferedEvents  int64   `json:"offered_events"`
	AcceptedEvents int64   `json:"accepted_events"`
	ShedEvents     int64   `json:"shed_events"`   // batches given up on, in events
	ShedObserved   int64   `json:"shed_observed"` // per-attempt TOverloaded replies
	ExpiredEvents  int64   `json:"expired_events"`
	CostSum        int64   `json:"cost_sum"`
	ElapsedMS      float64 `json:"elapsed_ms"`
	EventsPerSec   float64 `json:"events_per_sec"`
	P50MS          float64 `json:"p50_ms"`
	P99MS          float64 `json:"p99_ms"`
	MaxMS          float64 `json:"max_ms"`
	// Daemon-side totals after the run (absolute, not deltas).
	Requests           int64 `json:"daemon_requests"`
	ServiceCost        int64 `json:"daemon_service_cost"`
	ServiceLoadSum     int64 `json:"daemon_service_load_sum"`
	DroppedServiceLoad int64 `json:"daemon_dropped_service_load"`
	SnapshotSeq        int64 `json:"daemon_snapshot_seq"`
	LedgerOK           bool  `json:"ledger_ok"`
	// Daemon-side telemetry (polled via MsgStats after the run): the
	// server's own batch-apply latency histogram and admission gauges,
	// alongside the client-observed round-trip percentiles — the gap
	// between them is queueing plus the network.
	DaemonApplyP50MS     float64 `json:"daemon_apply_p50_ms"`
	DaemonApplyP99MS     float64 `json:"daemon_apply_p99_ms"`
	DaemonQueueHighWater int64   `json:"daemon_queue_high_water"`
	RoundTripP50MS       float64 `json:"round_trip_p50_ms"`
	RoundTripP99MS       float64 `json:"round_trip_p99_ms"`
}

// runDaemonBench pushes o.Events events at the daemon and reconciles the
// ledger. With o.Events == 0 it only reads stats — the restart-verify
// invocation. A ledger violation is returned as an error (CI fails).
func runDaemonBench(o daemonBenchOptions) (*jsonDaemonBench, error) {
	out := &jsonDaemonBench{Addr: o.Addr, Clients: o.Clients, Batch: o.Batch, OfferedEvents: o.Events}

	pre, err := daemonStats(o)
	if err != nil {
		return nil, err
	}
	if o.Events == 0 {
		fillDaemonTotals(out, pre)
		out.LedgerOK = pre.ServiceLoadSum+pre.DroppedServiceLoad == pre.ServiceCost
		if !out.LedgerOK {
			return out, fmt.Errorf("-daemon: ledger open on %s: ΣServiceLoad %d + dropped %d != ServiceCost %d",
				o.Addr, pre.ServiceLoadSum, pre.DroppedServiceLoad, pre.ServiceCost)
		}
		return out, nil
	}

	// The daemon's leaf IDs come from its topology shape; the -dswitches /
	// -dprocs flags must match the flags hbnd was started with.
	leaves := tree.SCICluster(o.Switches, o.Procs, 4, 8).Leaves()

	// One shared obs registry across every client goroutine: per-call
	// Ingest latency (retries included) lands in IngestBatch, per-attempt
	// round trips and shed/retry counters are booked by the wire client
	// itself via ClientOptions.Obs.
	reg := obs.NewRegistry(1, 64)
	var (
		wg       sync.WaitGroup
		offered  atomic.Int64
		accepted atomic.Int64
		shed     atomic.Int64
		expired  atomic.Int64
		costSum  atomic.Int64
		mu       sync.Mutex
		errs     []error
	)
	start := time.Now()
	for c := 0; c < o.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := wire.Dial(o.Addr, wire.ClientOptions{Seed: o.Seed + int64(c)*1_000_003, Obs: reg})
			if err != nil {
				mu.Lock()
				errs = append(errs, err)
				mu.Unlock()
				return
			}
			defer cl.Close()
			rng := rand.New(rand.NewSource(o.Seed + int64(c)*7_368_787))
			batch := make([]workload.TraceEvent, o.Batch)
			for offered.Add(int64(o.Batch)) <= o.Events {
				for i := range batch {
					batch[i] = workload.TraceEvent{
						Object: rng.Intn(o.Objects),
						Node:   leaves[rng.Intn(len(leaves))],
						Write:  rng.Intn(10) == 0,
					}
				}
				t0 := time.Now()
				cost, err := cl.Ingest(batch, o.Budget)
				switch {
				case err == nil:
					accepted.Add(int64(o.Batch))
					costSum.Add(cost)
					reg.IngestBatch.ObserveSince(t0)
				case errors.Is(err, wire.ErrOverloaded):
					shed.Add(int64(o.Batch))
				case errors.Is(err, wire.ErrExpired):
					expired.Add(int64(o.Batch))
				default:
					mu.Lock()
					errs = append(errs, fmt.Errorf("-daemon: client %d: %w", c, err))
					mu.Unlock()
					return
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if len(errs) > 0 {
		return out, errs[0]
	}

	out.AcceptedEvents = accepted.Load()
	out.ShedEvents = shed.Load()
	out.ShedObserved = reg.Global.Load(obs.SlotSheds)
	out.ExpiredEvents = expired.Load()
	out.OfferedEvents = out.AcceptedEvents + out.ShedEvents + out.ExpiredEvents
	out.CostSum = costSum.Load()
	out.ElapsedMS = float64(elapsed.Microseconds()) / 1000
	if elapsed > 0 {
		out.EventsPerSec = float64(out.AcceptedEvents) / elapsed.Seconds()
	}
	if s := reg.IngestBatch.Snapshot(); s.Count > 0 {
		out.P50MS = nsToMS(s.Quantile(0.5))
		out.P99MS = nsToMS(s.Quantile(0.99))
		out.MaxMS = nsToMS(s.Max)
	}
	if s := reg.RoundTrip.Snapshot(); s.Count > 0 {
		out.RoundTripP50MS = nsToMS(s.Quantile(0.5))
		out.RoundTripP99MS = nsToMS(s.Quantile(0.99))
	}

	post, err := daemonStats(o)
	if err != nil {
		return out, err
	}
	fillDaemonTotals(out, post)

	// Poll the daemon's own telemetry export: its apply-latency histogram
	// and admission gauges ride along in -json output.
	ms, err := daemonMsgStats(o)
	if err != nil {
		return out, err
	}
	out.DaemonQueueHighWater = ms.QueueHighWater
	for i := range ms.Hists {
		if h := &ms.Hists[i]; h.Name == "apply" && h.Count > 0 {
			out.DaemonApplyP50MS = nsToMS(h.Quantile(0.5))
			out.DaemonApplyP99MS = nsToMS(h.Quantile(0.99))
		}
	}

	// The external ledger: the daemon's deltas equal exactly what clients
	// saw acknowledged, and the internal books close.
	switch {
	case post.Requests-pre.Requests != out.AcceptedEvents:
		err = fmt.Errorf("-daemon: daemon served %d new events, clients saw %d acknowledged",
			post.Requests-pre.Requests, out.AcceptedEvents)
	case post.ServiceCost-pre.ServiceCost != out.CostSum:
		err = fmt.Errorf("-daemon: daemon cost delta %d != Σ acknowledged costs %d",
			post.ServiceCost-pre.ServiceCost, out.CostSum)
	case post.ServiceLoadSum+post.DroppedServiceLoad != post.ServiceCost:
		err = fmt.Errorf("-daemon: ledger open: ΣServiceLoad %d + dropped %d != ServiceCost %d",
			post.ServiceLoadSum, post.DroppedServiceLoad, post.ServiceCost)
	}
	out.LedgerOK = err == nil
	return out, err
}

// nsToMS converts a nanosecond histogram value to milliseconds.
func nsToMS(ns int64) float64 { return float64(ns) / 1e6 }

func daemonStats(o daemonBenchOptions) (*wire.DaemonStats, error) {
	cl, err := wire.Dial(o.Addr, wire.ClientOptions{Seed: o.Seed ^ 0x57a75})
	if err != nil {
		return nil, fmt.Errorf("-daemon: dial %s: %w", o.Addr, err)
	}
	defer cl.Close()
	return cl.Stats()
}

func daemonMsgStats(o daemonBenchOptions) (*wire.MsgStats, error) {
	cl, err := wire.Dial(o.Addr, wire.ClientOptions{Seed: o.Seed ^ 0x66b21})
	if err != nil {
		return nil, fmt.Errorf("-daemon: dial %s: %w", o.Addr, err)
	}
	defer cl.Close()
	return cl.MsgStats()
}

func fillDaemonTotals(out *jsonDaemonBench, st *wire.DaemonStats) {
	out.Requests = st.Requests
	out.ServiceCost = st.ServiceCost
	out.ServiceLoadSum = st.ServiceLoadSum
	out.DroppedServiceLoad = st.DroppedServiceLoad
	out.SnapshotSeq = int64(st.SnapshotSeq)
}

func printDaemonBench(d *jsonDaemonBench) {
	fmt.Printf("daemon %s: %d clients × %d-event batches\n", d.Addr, d.Clients, d.Batch)
	fmt.Printf("  accepted %d / offered %d events (%.0f ev/s), shed %d, expired %d\n",
		d.AcceptedEvents, d.OfferedEvents, d.EventsPerSec, d.ShedEvents, d.ExpiredEvents)
	fmt.Printf("  latency p50 %.2fms p99 %.2fms max %.2fms (round-trip p50 %.2fms p99 %.2fms)\n",
		d.P50MS, d.P99MS, d.MaxMS, d.RoundTripP50MS, d.RoundTripP99MS)
	fmt.Printf("  daemon apply p50 %.2fms p99 %.2fms, queue high-water %d\n",
		d.DaemonApplyP50MS, d.DaemonApplyP99MS, d.DaemonQueueHighWater)
	fmt.Printf("  daemon totals: %d requests, cost %d, ΣServiceLoad %d + dropped %d\n",
		d.Requests, d.ServiceCost, d.ServiceLoadSum, d.DroppedServiceLoad)
	verdict := "OK"
	if !d.LedgerOK {
		verdict = "VIOLATED"
	}
	fmt.Printf("  conservation ledger: %s\n", verdict)
}
