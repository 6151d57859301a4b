package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"time"
)

// metric is one reported quantity, exactly as BENCHMARK.json lists it.
type metric struct{ name, unit, better string }

// endToEnd is what a run without tracing reports: what a user of the
// daemon or of Cluster.Ingest sees. Every workload reports every one.
var endToEnd = []metric{
	{"events_per_s", "events/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p99_ms", "ms", "lower"},
	{"congestion_ratio", "ratio", "lower"},
	{"snapshot_p50_ms", "ms", "lower"},
	{"setup_s", "s", "lower"},
	{"state_mb", "MiB", "lower"},
}

// perLayer is what a traced run reports. README.md maps each one to the
// end-to-end metric and workload it should move. A layer a workload does
// not exercise reports 0.
var perLayer = []metric{
	{"wire.encode_ns_per_event", "ns/event", "lower"},
	{"wire.decode_ns_per_event", "ns/event", "lower"},
	{"wire.reply_ns", "ns", "lower"},
	{"wire.frame_bytes_per_event", "B/event", "lower"},
	{"wire.tail_append_p50_us", "us", "lower"},
	{"wire.tail_append_p99_us", "us", "lower"},
	{"hbnd.residual_p50_us", "us", "lower"},
	{"hbnd.queue_high_water", "count", "lower"},
	{"hbnd.shed_batches", "count", "lower"},
	{"hbnd.expired_batches", "count", "lower"},
	{"hbnd.failed_share", "fraction", "lower"},
	{"serve.ingest_p50_us", "us", "lower"},
	{"serve.ingest_p99_us", "us", "lower"},
	{"serve.epoch_ingest_p50_ms", "ms", "lower"},
	{"serve.epoch_ingest_max_ms", "ms", "lower"},
	{"serve.epoch_share", "fraction", "lower"},
	{"serve.partition_ns_per_event", "ns/event", "lower"},
	{"serve.epochs", "count", "lower"},
	{"serve.drifted_objects", "count", "lower"},
	{"serve.adopt_moved", "count", "lower"},
	{"dynamic.serve_ns_per_event", "ns/event", "lower"},
	{"dynamic.record_ns_per_event", "ns/event", "lower"},
	{"dynamic.replications", "count", "lower"},
	{"dynamic.contractions", "count", "lower"},
	{"dynamic.materializations", "count", "lower"},
	{"dynamic.cost_per_event", "cost/event", "lower"},
	{"core.resolve_p50_ms", "ms", "lower"},
	{"core.resolve_max_ms", "ms", "lower"},
	{"core.resolve_share", "fraction", "lower"},
	{"core.adopt_yield", "fraction", "higher"},
	{"snapshot.cut_stall_ms", "ms", "lower"},
	{"snapshot.encode_ms", "ms", "lower"},
	{"snapshot.write_ms", "ms", "lower"},
	{"snapshot.bytes", "B", "lower"},
	{"snapshot.restore_ms", "ms", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// Nanoseconds per reporting unit.
const (
	perUS = 1e3
	perMS = 1e6
	perS  = 1e9
)

// report collects one run's metrics, correctness gates and operation
// counts, and prints them.
type report struct {
	values    map[string]float64
	notes     map[string]string
	omitted   map[string]bool
	gates     []gate
	attempted int64
	failed    int64
	measured  time.Duration // length of the measured phase actually run
}

type gate struct {
	name string
	err  error
}

func newReport() *report {
	return &report{values: map[string]float64{}, notes: map[string]string{}, omitted: map[string]bool{}}
}

func (r *report) set(name string, v float64, note string) {
	r.values[name] = v
	r.notes[name] = note
}

// pct reports the nearest-rank q-quantile of s in units of nsPer
// nanoseconds, with its sample count. A percentile with fewer than
// minBeyond samples beyond its rank is omitted: an end-to-end metric is
// then left out of the result, a per-layer one reads 0.
func (r *report) pct(name string, s *samples, q, nsPer float64) {
	v, beyond := s.quantile(q)
	if beyond < minBeyond {
		r.omitted[name] = true
		r.notes[name] = fmt.Sprintf("omitted: n=%d, %d beyond rank", s.n(), max(beyond, 0))
		return
	}
	r.set(name, float64(v)/nsPer, fmt.Sprintf("n=%d, %d beyond rank", s.n(), beyond))
}

// check records a correctness gate; a non-nil err fails the run.
func (r *report) check(name string, err error) { r.gates = append(r.gates, gate{name, err}) }

// write prints every metric of list by name with its unit, the gates,
// and as the last line the JSON result. It reports whether every gate
// passed; an error means a metric was never produced, a benchmark bug.
func (r *report) write(w io.Writer, list []metric, perLayer bool) (bool, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := make(map[string]value, len(list))
	for _, m := range list {
		v, ok := r.values[m.name]
		switch {
		case ok && (math.IsNaN(v) || math.IsInf(v, 0)):
			return false, fmt.Errorf("metric %s is not finite (%v)", m.name, v)
		case ok:
			out[m.name] = value{v, m.unit}
		case r.omitted[m.name] && perLayer:
			out[m.name] = value{0, m.unit}
		case r.omitted[m.name]:
			fmt.Fprintf(w, "%-30s %16s %-10s %s\n", m.name, "-", m.unit, r.notes[m.name])
			continue
		default:
			return false, fmt.Errorf("metric %s was not measured", m.name)
		}
		fmt.Fprintf(w, "%-30s %16.6g %-10s %s\n", m.name, out[m.name].Value, m.unit, r.notes[m.name])
	}
	correct := true
	for _, g := range r.gates {
		verdict := "ok"
		if g.err != nil {
			correct = false
			verdict = "FAILED: " + g.err.Error()
		}
		fmt.Fprintf(w, "gate %s: %s\n", g.name, verdict)
	}
	share := 0.0
	if r.attempted > 0 {
		share = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "measured %.3f s; correct %v, attempted %d, failed %d (failed_share %.6f)\n",
		r.measured.Seconds(), correct, r.attempted, r.failed, share)
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, r.attempted, r.failed, out})
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%s\n", line)
	return correct, nil
}

// heapMiB is the live heap after two full collections: a dropped
// cluster stays reachable through its scratch sync.Pool until the second
// collection after its last use.
func heapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
