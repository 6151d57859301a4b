package hbnd

// Live telemetry export: the wire-level MsgStats assembly (TMsgStats)
// and the HTTP surface — Prometheus text format on /metrics plus the
// standard pprof handlers — both reading the same obs.Registry the
// serving hot path writes. Every read here is an atomic load or a
// histogram snapshot; scraping never takes a cluster lock and never
// perturbs the 0 allocs/op ingest guarantee.

import (
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"

	"hbn/internal/obs"
	"hbn/internal/wire"
)

// MsgStats assembles the daemon's full telemetry export for a
// TMsgStatsOK reply. In standby (no cluster yet) only the admission
// gauges are populated.
func (d *Daemon) MsgStats() *wire.MsgStats {
	m := &wire.MsgStats{
		QueueLen:       d.waiting.Load(),
		QueueCap:       int64(d.cfg.QueueCap),
		QueueHighWater: d.queueHighWater.Load(),
		EwmaApplyNs:    d.ewmaApplyNs.Load(),
	}
	o := d.obsReg()
	if o == nil {
		return m
	}
	n := o.Shards.Shards()
	m.ShardEvents = make([]int64, n)
	m.ShardCost = make([]int64, n)
	m.ShardBatches = make([]int64, n)
	for i := 0; i < n; i++ {
		row := o.Shards.Row(i)
		m.ShardEvents[i] = row[obs.SlotEvents]
		m.ShardCost[i] = row[obs.SlotCost]
		m.ShardBatches[i] = row[obs.SlotBatches]
	}
	m.DroppedLoad = o.Shards.Total(obs.SlotDroppedLoad)
	m.DroppedCost = o.Shards.Total(obs.SlotDroppedCost)
	m.DriftFires = o.Global.Load(obs.SlotDriftFires)
	ops := d.cl.OpCounts()
	m.Replications = ops.Replications
	m.Contractions = ops.Contractions
	m.Materializations = ops.Materializations
	m.Adoptions = ops.Adoptions
	for _, nh := range o.Hists() {
		s := nh.Hist.Snapshot()
		if s.Count == 0 {
			continue
		}
		m.Hists = append(m.Hists, wire.HistStat{
			Name: nh.Name, Count: s.Count, Sum: s.Sum, Min: s.Min, Max: s.Max,
			Buckets: s.Buckets,
		})
	}
	m.Flight = o.Flight.Events(nil)
	return m
}

// MetricsHandler returns the daemon's HTTP observability mux: Prometheus
// text-format metrics on /metrics and, when withPprof is set, the
// standard pprof handlers under /debug/pprof/. Mount it on a listener
// separate from the wire port.
func (d *Daemon) MetricsHandler(withPprof bool) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", d.serveMetrics)
	if withPprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// serveMetrics renders the registry in Prometheus text exposition
// format (version 0.0.4): counters per shard, admission gauges,
// per-edge congestion gauges, and each latency histogram with
// cumulative log2 buckets.
func (d *Daemon) serveMetrics(w http.ResponseWriter, _ *http.Request) {
	var b strings.Builder
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}

	counter("hbn_accepted_batches_total", "batches admitted and applied", d.acceptedBatches.Load())
	counter("hbn_shed_batches_total", "batches shed at the admission queue", d.shedBatches.Load())
	counter("hbn_expired_batches_total", "batches dropped past their deadline budget", d.expiredBatches.Load())
	gauge("hbn_queue_len", "admitted batches waiting to apply", d.waiting.Load())
	gauge("hbn_queue_cap", "admission queue capacity", int64(d.cfg.QueueCap))
	gauge("hbn_queue_high_water", "admission queue high-water mark", d.queueHighWater.Load())
	gauge("hbn_apply_ewma_ns", "EWMA per-batch apply time (retry-after basis)", d.ewmaApplyNs.Load())

	o := d.obsReg()
	if o == nil {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		fmt.Fprint(w, b.String())
		return
	}

	// Per-shard counter rows.
	for _, slot := range []struct {
		slot int
		name string
		help string
	}{
		{obs.SlotEvents, "hbn_shard_events_total", "requests served per shard"},
		{obs.SlotCost, "hbn_shard_cost_total", "service cost per shard"},
		{obs.SlotBatches, "hbn_shard_batches_total", "batch partitions applied per shard"},
	} {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n", slot.name, slot.help, slot.name)
		for i := 0; i < o.Shards.Shards(); i++ {
			fmt.Fprintf(&b, "%s{shard=\"%d\"} %d\n", slot.name, i, o.Shards.Load(i, slot.slot))
		}
	}
	counter("hbn_dropped_load_total", "raw load dropped by hardware removal", o.Shards.Total(obs.SlotDroppedLoad))
	counter("hbn_dropped_cost_total", "service load dropped by hardware removal", o.Shards.Total(obs.SlotDroppedCost))
	counter("hbn_drift_epochs_total", "epochs triggered by the drift detector", o.Global.Load(obs.SlotDriftFires))
	counter("hbn_flight_events_total", "flight-recorder events ever recorded", int64(o.Flight.Recorded()))

	ops := d.cl.OpCounts()
	counter("hbn_ops_replications_total", "strategy replication steps", ops.Replications)
	counter("hbn_ops_contractions_total", "strategy contraction steps", ops.Contractions)
	counter("hbn_ops_materializations_total", "strategy materializations", ops.Materializations)
	counter("hbn_ops_adoptions_total", "copy-set adoptions across epochs", ops.Adoptions)

	// Per-edge congestion gauges, sampled straight from the cluster's
	// packed counter words (one atomic load per edge, no lock).
	edges := d.cl.EdgeLoad()
	service := d.cl.ServiceLoad()
	fmt.Fprintf(&b, "# HELP hbn_edge_load current per-edge congestion\n# TYPE hbn_edge_load gauge\n")
	for e, v := range edges {
		fmt.Fprintf(&b, "hbn_edge_load{edge=\"%d\"} %d\n", e, v)
	}
	fmt.Fprintf(&b, "# HELP hbn_edge_service_load cumulative per-edge service load\n# TYPE hbn_edge_service_load counter\n")
	for e, v := range service {
		fmt.Fprintf(&b, "hbn_edge_service_load{edge=\"%d\"} %d\n", e, v)
	}

	// Latency histograms: cumulative le= buckets in nanoseconds.
	for _, nh := range o.Hists() {
		s := nh.Hist.Snapshot()
		name := "hbn_" + nh.Name + "_ns"
		fmt.Fprintf(&b, "# HELP %s %s latency (ns)\n# TYPE %s histogram\n", name, nh.Name, name)
		cum := int64(0)
		for i := 0; i < obs.NumBuckets; i++ {
			if s.Buckets[i] == 0 {
				continue
			}
			cum += s.Buckets[i]
			fmt.Fprintf(&b, "%s_bucket{le=\"%s\"} %d\n", name, strconv.FormatInt(obs.BucketUpper(i), 10), cum)
		}
		fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", name, s.Count)
		fmt.Fprintf(&b, "%s_sum %d\n", name, s.Sum)
		fmt.Fprintf(&b, "%s_count %d\n", name, s.Count)
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprint(w, b.String())
}
