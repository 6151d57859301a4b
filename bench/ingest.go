package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"hbn/internal/serve"
	"hbn/internal/tree"
	"hbn/internal/workload"
)

// In-process workloads: serve.NewCluster and Cluster.Ingest from one
// goroutine. A round serves the whole trace on a fresh cluster; rounds
// repeat until the measured Ingest-loop time reaches the run length, and
// at least twice, so that the congestion ratio can be compared between
// rounds. events_per_s is the median of the rounds' rates.

func clusterOptions(sp spec, parallelism int) serve.Options {
	return serve.Options{Shards: shards, Threshold: threshold, EpochRequests: sp.epoch, Parallelism: parallelism}
}

// snapshotter cuts a snapshot of the cluster being served between
// batches, once every period of loop time.
type snapshotter struct {
	path  string
	every time.Duration
	next  time.Time
	took  *samples // Cluster.Snapshot call times
}

// maybe cuts a snapshot when one is due and returns how long it took.
func (sn *snapshotter) maybe(c *serve.Cluster) (time.Duration, error) {
	t0 := time.Now()
	if t0.Before(sn.next) {
		return 0, nil
	}
	if _, err := c.Snapshot(sn.path); err != nil {
		return 0, fmt.Errorf("snapshot: %w", err)
	}
	d := time.Since(t0)
	sn.took.add(int64(d))
	sn.next = t0.Add(d + sn.every)
	return d, nil
}

// ingestRound serves every batch on a fresh cluster and returns the
// cluster, the Ingest loop's wall time and the Σ of the returned costs.
// When lat is set it receives every call's latency; when tr is set every
// call gets a span; when sn is set it cuts snapshots between batches,
// and their time is not loop time.
func ingestRound(t *tree.Tree, opts serve.Options, bs [][]workload.TraceEvent, lat *samples, tr *tracer, sn *snapshotter) (*serve.Cluster, time.Duration, int64, error) {
	c, err := serve.NewCluster(t, numObjects, opts)
	if err != nil {
		return nil, 0, 0, err
	}
	var cost, epochs int64
	var paused time.Duration
	start := time.Now()
	for k, b := range bs {
		var t0 time.Time
		if lat != nil {
			t0 = time.Now()
		}
		ref := tr.start(-1, k)
		n, err := c.Ingest(b)
		if err != nil {
			c.Close()
			return nil, 0, 0, fmt.Errorf("batch %d: %w", k, err)
		}
		if lat != nil {
			lat.add(int64(time.Since(t0)))
		}
		if tr != nil {
			epochs = tr.finishIngest(ref, c, epochs)
		}
		cost += n
		if sn != nil {
			d, err := sn.maybe(c)
			if err != nil {
				c.Close()
				return nil, 0, 0, err
			}
			paused += d
		}
	}
	return c, time.Since(start) - paused, cost, nil
}

// checkRound is the in-process ledger: the cluster served every event
// once, its service cost is the Σ of the costs Ingest returned, and its
// service loads plus dropped load add up to that cost.
func checkRound(c *serve.Cluster, events, cost int64) error {
	st := c.Stats()
	var loads int64
	for _, v := range c.ServiceLoad() {
		loads += v
	}
	switch {
	case st.Requests != events:
		return fmt.Errorf("cluster served %d requests, trace has %d", st.Requests, events)
	case st.ServiceCost != cost:
		return fmt.Errorf("ServiceCost %d != Σ Ingest costs %d", st.ServiceCost, cost)
	case loads+st.DroppedServiceLoad != st.ServiceCost:
		return fmt.Errorf("ΣServiceLoad %d + dropped %d != ServiceCost %d", loads, st.DroppedServiceLoad, st.ServiceCost)
	}
	return nil
}

// ingestTrace generates the workload's trace, cut into batches, and the
// congestion of the static optimum on those batches.
func ingestTrace(sp spec, seed int64, t *tree.Tree) ([][]workload.TraceEvent, float64, error) {
	bs := batches(sp.gen(rand.New(rand.NewSource(seed)), t, sp.events), sp.batch)
	w := workload.New(numObjects, t.Len())
	for _, b := range bs {
		w.AddTrace(b)
	}
	static, err := staticCongestion(t, w)
	return bs, static, err
}

// roundChecker accumulates the per-round gates: the ledger of every
// round, and one congestion ratio shared by all rounds (inline epochs
// make serving deterministic).
type roundChecker struct {
	static float64
	ratio  float64
	rounds int
	ledger error
	same   error
}

func (rc *roundChecker) add(t *tree.Tree, c *serve.Cluster, events, cost int64) {
	if rc.ledger == nil {
		if err := checkRound(c, events, cost); err != nil {
			rc.ledger = fmt.Errorf("round %d: %w", rc.rounds, err)
		}
	}
	ratio := congestion(t, c.EdgeLoad()) / rc.static
	if rc.rounds == 0 {
		rc.ratio = ratio
	} else if ratio != rc.ratio && rc.same == nil {
		rc.same = fmt.Errorf("round %d ratio %v, round 0 ratio %v", rc.rounds, ratio, rc.ratio)
	}
	rc.rounds++
}

func (rc *roundChecker) report(r *report) {
	r.check("ledger", rc.ledger)
	r.check("ratio identical in every round", rc.same)
}

// setupCluster times setupRuns cluster constructions.
func setupCluster(t *tree.Tree, opts serve.Options) (*samples, error) {
	setup := newSamples(setupRuns)
	for i := 0; i < setupRuns; i++ {
		runtime.GC() // collection debt from earlier work is not this set-up's cost
		t0 := time.Now()
		c, err := serve.NewCluster(t, numObjects, opts)
		if err != nil {
			return nil, err
		}
		setup.add(int64(time.Since(t0)))
		c.Close()
	}
	return setup, nil
}

// runIngest is the untraced in-process run.
func runIngest(sp spec, seed int64, seconds time.Duration, r *report) error {
	t := topology()
	bs, static, err := ingestTrace(sp, seed, t)
	if err != nil {
		return err
	}
	opts := clusterOptions(sp, 0)
	setup, err := setupCluster(t, opts)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "hbn-bench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	sn := &snapshotter{path: filepath.Join(dir, "state.snap"), every: sp.snapEvery, took: newSamples(256)}
	sn.next = time.Now().Add(sn.every)

	lat := newSamples(len(bs) * 8)
	rc := roundChecker{static: static}
	var last *serve.Cluster
	var wall time.Duration
	var rates []float64
	for rc.rounds < 2 || wall < seconds {
		c, d, cost, err := ingestRound(t, opts, bs, lat, nil, sn)
		r.attempted += int64(len(bs))
		if err != nil {
			return err
		}
		wall += d
		rates = append(rates, float64(len(bs)*sp.batch)/d.Seconds())
		rc.add(t, c, int64(len(bs)*sp.batch), cost)
		if last != nil {
			last.Close()
		}
		last = c
	}
	rc.report(r)
	alive := heapMiB()
	last.Close()
	last = nil
	state := alive - heapMiB()

	r.measured = wall
	r.set("events_per_s", median(rates),
		fmt.Sprintf("median of %d rounds of %d events", rc.rounds, len(bs)*sp.batch))
	r.pct("latency_p50_ms", lat, 0.5, perMS)
	r.pct("latency_p99_ms", lat, 0.99, perMS)
	r.set("congestion_ratio", rc.ratio, fmt.Sprintf("static optimum %.6g", static))
	r.pct("snapshot_p50_ms", sn.took, 0.5, perMS)
	r.pct("setup_s", setup, 0.5, perS)
	r.set("state_mb", state, "live heap with the last round's cluster, minus after it is closed")
	return nil
}
