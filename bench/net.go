package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"hbn/internal/hbnd"
	"hbn/internal/tree"
	"hbn/internal/wire"
	"hbn/internal/workload"
)

// Daemon workloads: an hbnd daemon in this process on a loopback port,
// driven by closed-loop wire.Client connections, each sending its next
// batch only after the previous reply.
const (
	conns      = 2   // client connections, one load goroutine each
	setupRuns  = 51  // set-ups timed for setup_s
	layerSnaps = 101 // snapshots a traced run cuts for the snapshot layer
	// rateSlots is how many equal slices the window is cut into;
	// events_per_s is the median of their rates, so a burst of outside
	// load on the host moves one slice, not the result.
	rateSlots = 20
	// batchBudget is the deadline budget every batch carries; a batch the
	// daemon has not applied within it comes back expired and counts as
	// failed.
	batchBudget = time.Second
)

// warmup is the unmeasured lead-in before a daemon window.
func warmup(window time.Duration) time.Duration { return min(window/4, 3*time.Second) }

// daemonConfig is the cold-start shape of every daemon the benchmark
// builds. State lives in dir with hbnd's shipped flush policy: snapshots
// are fsynced and renamed into place, tail appends are not fsynced.
func daemonConfig(sp spec, dir string, parallelism int) hbnd.Config {
	return hbnd.Config{
		Addr:          "127.0.0.1:0",
		SnapshotPath:  filepath.Join(dir, "state.snap"),
		Switches:      switches,
		ProcsPerRing:  procsPerRing,
		RingBW:        ringBW,
		SwitchBW:      switchBW,
		NumObjects:    numObjects,
		Shards:        shards,
		Threshold:     threshold,
		EpochRequests: sp.epoch,
		Parallelism:   parallelism,
	}
}

// liveDaemon is a serving daemon in a fresh state directory plus the
// benchmark's connections to it.
type liveDaemon struct {
	d          *hbnd.Daemon
	dir        string
	served     chan error // Serve's return value
	cls        []*wire.Client
	goroutines int // running before the daemon started
}

// startDaemon cold-starts a daemon, binds a loopback port and dials and
// handshakes every connection: the set-up a user waits for before the
// first batch. It returns how long that took.
func startDaemon(sp spec, seed int64) (*liveDaemon, time.Duration, error) {
	dir, err := os.MkdirTemp("", "hbn-bench-")
	if err != nil {
		return nil, 0, err
	}
	goroutines := runtime.NumGoroutine()
	t0 := time.Now()
	d, err := hbnd.New(daemonConfig(sp, dir, 0))
	if err != nil {
		os.RemoveAll(dir)
		return nil, 0, err
	}
	l := &liveDaemon{d: d, dir: dir, goroutines: goroutines}
	if err := d.Listen(); err != nil {
		l.close()
		return nil, 0, err
	}
	l.served = make(chan error, 1)
	go func() { l.served <- d.Serve() }()
	for c := 0; c < conns; c++ {
		cl, err := wire.Dial(d.Addr(), wire.ClientOptions{MaxRetries: -1, Seed: seed + int64(c) + 1})
		if err != nil {
			l.close()
			return nil, 0, err
		}
		l.cls = append(l.cls, cl)
	}
	return l, time.Since(t0), nil
}

// close hangs up every connection, stops the daemon, waits for Serve to
// return and for the daemon's connection handlers to see the hang-up
// (they hold the daemon until then), and removes the state directory.
func (l *liveDaemon) close() error {
	for _, cl := range l.cls {
		cl.Close()
	}
	err := l.d.Close()
	if l.served != nil {
		err = errors.Join(err, <-l.served)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > l.goroutines; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			err = errors.Join(err, errors.New("daemon connection handlers still running 5s after close"))
			break
		}
	}
	return errors.Join(err, os.RemoveAll(l.dir))
}

// setupDaemon times setupRuns daemon set-ups and keeps the last one
// running.
func setupDaemon(sp spec, seed int64) (*liveDaemon, *samples, error) {
	setup := newSamples(setupRuns)
	for i := 0; ; i++ {
		runtime.GC() // collection debt from the previous set-up is not this one's cost
		l, d, err := startDaemon(sp, seed)
		if err != nil {
			return nil, nil, err
		}
		setup.add(int64(d))
		if i == setupRuns-1 {
			return l, setup, nil
		}
		if err := l.close(); err != nil {
			return nil, nil, err
		}
	}
}

// netTrace generates the workload's trace and cuts it into one batch
// list per connection.
func netTrace(sp spec, seed int64, t *tree.Tree) [][][]workload.TraceEvent {
	trace := sp.gen(rand.New(rand.NewSource(seed)), t, sp.events)
	half := len(trace) / conns
	out := make([][][]workload.TraceEvent, conns)
	for c := range out {
		out[c] = batches(trace[c*half:(c+1)*half], sp.batch)
	}
	return out
}

// connLoad is one connection's closed loop and what it observed.
type connLoad struct {
	batches    [][]workload.TraceEvent
	snapEvery  time.Duration
	acked      []int32  // per batch: times acknowledged, the multiset the daemon served
	lat        *samples // round trips of acknowledged batches inside the window
	snaps      *samples // snapshot round trips inside the window
	slot       time.Duration
	slotEvents [rateSlots]int64 // events acknowledged in each slice of the window

	ackedEvents int64 // over the whole run, warm-up included
	cost        int64 // Σ acknowledged costs
	attempted   int64
	failed      int64 // shed or expired
	err         error
}

func (c *connLoad) run(cl *wire.Client, from, to time.Time) {
	next := time.Now().Add(c.snapEvery)
	for i := 0; ; i = (i + 1) % len(c.batches) {
		b := c.batches[i]
		t0 := time.Now()
		cost, err := cl.Ingest(b, batchBudget)
		t1 := time.Now()
		c.attempted++
		switch {
		case err == nil:
			c.acked[i]++
			c.ackedEvents += int64(len(b))
			c.cost += cost
			if !t0.Before(from) && !t1.After(to) {
				c.lat.add(int64(t1.Sub(t0)))
				c.slotEvents[min(int(t1.Sub(from)/c.slot), rateSlots-1)] += int64(len(b))
			}
		case errors.Is(err, wire.ErrOverloaded), errors.Is(err, wire.ErrExpired):
			c.failed++
		default:
			c.err = fmt.Errorf("ingest: %w", err)
			return
		}
		if c.snapEvery > 0 && !t1.Before(next) {
			s0 := time.Now()
			if _, err := cl.Snapshot(); err != nil {
				c.err = fmt.Errorf("snapshot: %w", err)
				return
			}
			s1 := time.Now()
			if !s0.Before(from) && !s1.After(to) {
				c.snaps.add(int64(s1.Sub(s0)))
			}
			next = s1.Add(c.snapEvery)
		}
		if !t1.Before(to) {
			return
		}
	}
}

// drive runs every connection's closed loop through warm-up and the
// measured window and waits for all of them.
func drive(l *liveDaemon, sp spec, perConn [][][]workload.TraceEvent, warm, window time.Duration) ([]*connLoad, error) {
	from := time.Now().Add(warm)
	to := from.Add(window)
	// Room for ~2M events/s per connection: the recorders never grow
	// inside the window.
	capacity := int(window.Seconds()*2e6) / sp.batch
	loads := make([]*connLoad, conns)
	var wg sync.WaitGroup
	for c := range loads {
		ld := &connLoad{
			batches: perConn[c],
			acked:   make([]int32, len(perConn[c])),
			lat:     newSamples(capacity),
			snaps:   newSamples(64),
			slot:    window / rateSlots,
		}
		if c == 0 {
			ld.snapEvery = sp.snapEvery
		}
		loads[c] = ld
		wg.Add(1)
		go func() {
			defer wg.Done()
			ld.run(l.cls[c], from, to)
		}()
	}
	wg.Wait()
	for _, ld := range loads {
		if ld.err != nil {
			return nil, ld.err
		}
	}
	return loads, nil
}

// ledger is the external conservation check: the daemon's request and
// cost deltas equal exactly what the clients saw acknowledged, and its
// service loads plus the load dropped by reconfigurations add up to its
// service cost.
func ledger(pre, post *wire.DaemonStats, loads []*connLoad) error {
	var events, cost int64
	for _, ld := range loads {
		events += ld.ackedEvents
		cost += ld.cost
	}
	switch {
	case post.Requests-pre.Requests != events:
		return fmt.Errorf("daemon served %d events, clients saw %d acknowledged", post.Requests-pre.Requests, events)
	case post.ServiceCost-pre.ServiceCost != cost:
		return fmt.Errorf("daemon cost delta %d != Σ acknowledged costs %d", post.ServiceCost-pre.ServiceCost, cost)
	case post.ServiceLoadSum+post.DroppedServiceLoad != post.ServiceCost:
		return fmt.Errorf("ΣServiceLoad %d + dropped %d != ServiceCost %d",
			post.ServiceLoadSum, post.DroppedServiceLoad, post.ServiceCost)
	}
	return nil
}

// servedWorkload aggregates the batches the daemon acknowledged, each
// weighted by how often it was, into frequencies for the static optimum.
func servedWorkload(t *tree.Tree, loads []*connLoad) *workload.W {
	w := workload.New(numObjects, t.Len())
	for _, ld := range loads {
		for i, k := range ld.acked {
			if k == 0 {
				continue
			}
			for _, e := range ld.batches[i] {
				if e.Write {
					w.AddWrites(e.Object, e.Node, int64(k))
				} else {
					w.AddReads(e.Object, e.Node, int64(k))
				}
			}
		}
	}
	return w
}

// merged joins the connections' window latencies.
func merged(loads []*connLoad) *samples {
	var lats []*samples
	for _, ld := range loads {
		lats = append(lats, ld.lat)
	}
	return concat(lats...)
}

// runNet is the untraced daemon run: set-up, warm-up, the measured
// window, snapshots, the ledger, and the congestion of what was served.
func runNet(sp spec, seed int64, window time.Duration, r *report) error {
	t := topology()
	perConn := netTrace(sp, seed, t)
	l, setup, err := setupDaemon(sp, seed)
	if err != nil {
		return err
	}
	defer func() {
		if l != nil {
			l.close()
		}
	}()
	pre, err := l.cls[0].Stats()
	if err != nil {
		return err
	}
	loads, err := drive(l, sp, perConn, warmup(window), window)
	if err != nil {
		return err
	}
	post, err := l.cls[0].Stats()
	if err != nil {
		return err
	}
	r.check("ledger", ledger(pre, post, loads))
	online := congestion(t, l.d.Cluster().EdgeLoad())

	alive := heapMiB()
	err = l.close()
	l = nil
	if err != nil {
		return err
	}
	state := alive - heapMiB()

	static, err := staticCongestion(t, servedWorkload(t, loads))
	if err != nil {
		return err
	}
	rates := make([]float64, rateSlots)
	var events int64
	for _, ld := range loads {
		for i, n := range ld.slotEvents {
			rates[i] += float64(n) / ld.slot.Seconds()
			events += n
		}
		r.attempted += ld.attempted
		r.failed += ld.failed
	}
	lat := merged(loads)
	r.measured = window
	r.set("events_per_s", median(rates),
		fmt.Sprintf("median of %d slices; %d events acknowledged in the window", rateSlots, events))
	r.pct("latency_p50_ms", lat, 0.5, perMS)
	r.pct("latency_p99_ms", lat, 0.99, perMS)
	r.set("congestion_ratio", online/static, fmt.Sprintf("online %.6g / static optimum %.6g", online, static))
	r.pct("snapshot_p50_ms", loads[0].snaps, 0.5, perMS)
	r.pct("setup_s", setup, 0.5, perS)
	r.set("state_mb", state, "live heap with the daemon and its connections up, minus after teardown")
	return nil
}
