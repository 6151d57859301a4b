package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"hbn/internal/dynamic"
	"hbn/internal/hbnd"
	"hbn/internal/serve"
	"hbn/internal/tree"
	"hbn/internal/wire"
	"hbn/internal/workload"
)

// The traced run. Spans are recorded by this package around its own
// calls into each layer; the program itself is not instrumented. Spans
// stay in memory, are written as JSON when the run ends, and are
// summarised into the per-layer metrics.

// stage names a traced layer boundary.
type stage uint8

const (
	stBatch       stage = iota // one daemon batch, parent of the wire and serve stages
	stEncode                   // client: AppendIngestBody + AppendFrame
	stDecode                   // server: DecodeFrame + ParseIngestBody
	stIngest                   // Cluster.Ingest during which no epoch pass ran
	stIngestEpoch              // Cluster.Ingest that ran an epoch pass inline
	stTail                     // AppendEvents + Log.AppendBatch
	stReply                    // AppendCost + AppendFrame, then DecodeFrame + ParseCost
	stDynServe                 // dynamic.Strategy.ServeBatch on one shard's part of a batch
	stDynRecord                // OfflineTracker.RecordBatch of that part
	numStages
)

var stageNames = [numStages]string{
	stBatch: "batch", stEncode: "wire.encode", stDecode: "wire.decode",
	stIngest: "serve.ingest", stIngestEpoch: "serve.ingest_epoch", stTail: "wire.tail_append",
	stReply: "wire.reply", stDynServe: "dynamic.serve", stDynRecord: "dynamic.record",
}

// maxSpans bounds the spans kept for the JSON dump. Every span's duration
// still reaches its stage's recorder, so the metrics cover all of them.
const maxSpans = 1 << 16

type rawSpan struct {
	start, end int64 // ns since the tracer's origin
	parent     int32 // index of the parent span, -1 for none
	batch      int32
	stage      stage
}

type tracer struct {
	origin  time.Time
	spans   []rawSpan
	dropped int
	stages  [numStages]*samples
}

func newTracer() *tracer {
	tr := &tracer{origin: time.Now(), spans: make([]rawSpan, 0, maxSpans)}
	for i := range tr.stages {
		tr.stages[i] = newSamples(maxSpans)
	}
	return tr
}

type spanRef struct {
	idx   int32 // -1 when the span is not kept
	start int64
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.origin)) }

// start opens a span. A nil tracer records nothing, so untraced loops
// share the traced code.
func (tr *tracer) start(parent int32, batch int) spanRef {
	if tr == nil {
		return spanRef{idx: -1}
	}
	ref := spanRef{idx: -1, start: tr.now()}
	if len(tr.spans) < cap(tr.spans) {
		ref.idx = int32(len(tr.spans))
		tr.spans = append(tr.spans, rawSpan{start: ref.start, parent: parent, batch: int32(batch)})
	} else {
		tr.dropped++
	}
	return ref
}

func (tr *tracer) finish(ref spanRef, st stage) {
	if tr != nil {
		tr.finishAt(ref, st, tr.now())
	}
}

func (tr *tracer) finishAt(ref spanRef, st stage, end int64) {
	tr.stages[st].add(end - ref.start)
	if ref.idx >= 0 {
		s := &tr.spans[ref.idx]
		s.end, s.stage = end, st
	}
}

// finishIngest closes a Cluster.Ingest span, naming it by whether the
// cluster's epoch count moved during the call, and returns the count.
func (tr *tracer) finishIngest(ref spanRef, c *serve.Cluster, epochs int64) int64 {
	end := tr.now()
	st := stIngest
	if e := c.Stats().Epochs; e != epochs {
		st, epochs = stIngestEpoch, e
	}
	tr.finishAt(ref, st, end)
	return epochs
}

// write dumps the kept spans as JSON.
func (tr *tracer) write(path string, sp spec, seed int64) error {
	type span struct {
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		Parent int32  `json:"parent"`
		Batch  int32  `json:"batch"`
	}
	out := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Dropped  int    `json:"dropped"`
		Spans    []span `json:"spans"`
	}{sp.name, seed, tr.dropped, make([]span, len(tr.spans))}
	for i, s := range tr.spans {
		out.Spans[i] = span{stageNames[s.stage], s.start, s.end, s.parent, s.batch}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// replayResult is one in-process replay of a daemon batch stream.
type replayResult struct {
	batches    int
	wall       time.Duration // replay loop only
	frameBytes int64
	edge       []int64
	stats      serve.Stats
	ops        dynamic.OpCounts
	resolve    *samples // ResolveNs of every epoch pass
	snaps      []serve.SnapshotStats
	restore    time.Duration
}

// replayNet pushes a daemon workload's batches, in the order the
// connections interleave them, through the daemon's own per-batch
// sequence of public calls, in process and without a socket: client
// encode, server decode, Cluster.Ingest on the cluster hbnd.New builds
// (at Parallelism 1, so stage times add up), tail append, reply encode
// and decode. Untraced (tr nil) it runs until limit; traced it replays
// exactly n batches with a span around every call and then cuts and
// restores snapshots of the replay cluster.
func replayNet(sp spec, stream [][]workload.TraceEvent, limit time.Duration, n int, tr *tracer) (res *replayResult, err error) {
	dir, err := os.MkdirTemp("", "hbn-bench-")
	if err != nil {
		return nil, err
	}
	d, err := hbnd.New(daemonConfig(sp, dir, 1))
	if err != nil {
		return nil, errors.Join(err, os.RemoveAll(dir))
	}
	tail, err := wire.OpenLog(filepath.Join(dir, "replay.tail"))
	if err != nil {
		return nil, errors.Join(err, d.Close(), os.RemoveAll(dir))
	}
	defer func() { err = errors.Join(err, tail.Close(), d.Close(), os.RemoveAll(dir)) }()
	cl := d.Cluster()

	res = &replayResult{}
	var body, frame, reply, rframe, tailBody []byte
	var evs []workload.TraceEvent
	var epochs int64
	start := time.Now()
	k := 0
	for ; tr != nil && k < n || tr == nil && time.Since(start) < limit; k++ {
		b := stream[k%len(stream)]
		seq := uint64(k + 1)
		root := tr.start(-1, k)

		s := tr.start(root.idx, k)
		body = wire.AppendIngestBody(body[:0], batchBudget, b)
		frame = wire.AppendFrame(frame[:0], wire.TIngest, seq, body)
		tr.finish(s, stEncode)

		s = tr.start(root.idx, k)
		f, _, err := wire.DecodeFrame(frame)
		if err == nil {
			_, evs, err = wire.ParseIngestBody(f.Body, evs)
		}
		tr.finish(s, stDecode)
		if err != nil {
			return nil, fmt.Errorf("batch %d: decode: %w", k, err)
		}

		s = tr.start(root.idx, k)
		cost, err := cl.Ingest(evs)
		if tr != nil {
			epochs = tr.finishIngest(s, cl, epochs)
		}
		if err != nil {
			return nil, fmt.Errorf("batch %d: %w", k, err)
		}

		s = tr.start(root.idx, k)
		tailBody = wire.AppendEvents(tailBody[:0], evs)
		err = tail.AppendBatch(seq, tailBody)
		tr.finish(s, stTail)
		if err != nil {
			return nil, err
		}

		s = tr.start(root.idx, k)
		reply = wire.AppendCost(reply[:0], cost)
		rframe = wire.AppendFrame(rframe[:0], wire.TIngestOK, seq, reply)
		rf, _, err := wire.DecodeFrame(rframe)
		var got int64
		if err == nil {
			got, err = wire.ParseCost(rf.Body)
		}
		tr.finish(s, stReply)
		tr.finish(root, stBatch)
		if err != nil || got != cost {
			return nil, fmt.Errorf("batch %d: reply carries cost %d, want %d (%v)", k, got, cost, err)
		}
		res.frameBytes += int64(len(frame))
	}
	res.wall = time.Since(start)
	res.batches = k
	res.edge = cl.EdgeLoad()
	res.stats = cl.Stats()
	res.ops = cl.OpCounts()
	res.resolve = resolveTimes(cl, nil)
	if tr != nil {
		res.snaps, res.restore, err = snapshotLayer(cl)
	}
	return res, err
}

// resolveTimes appends the solver time of every epoch pass c ran.
func resolveTimes(c *serve.Cluster, s *samples) *samples {
	log := c.EpochLog()
	if s == nil {
		s = newSamples(len(log))
	}
	for _, e := range log {
		s.add(e.ResolveNs)
	}
	return s
}

// snapshotLayer cuts layerSnaps snapshots of c and times restoring the
// last one.
func snapshotLayer(c *serve.Cluster) ([]serve.SnapshotStats, time.Duration, error) {
	dir, err := os.MkdirTemp("", "hbn-bench-")
	if err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "state.snap")
	stats := make([]serve.SnapshotStats, layerSnaps)
	for i := range stats {
		if stats[i], err = c.Snapshot(path); err != nil {
			return nil, 0, fmt.Errorf("snapshot: %w", err)
		}
	}
	t0 := time.Now()
	rc, _, err := serve.Restore(path, serve.RestoreOptions{Parallelism: 1})
	if err != nil {
		return nil, 0, err
	}
	return stats, time.Since(t0), rc.Close()
}

// replayDynamic serves the first n batches of the stream through the
// benchmark's own per-shard dynamic strategies and offline trackers,
// split by owner shard as the cluster splits them, with no epochs: the
// serve layer's inner calls without its partitioning, gate and
// telemetry. It returns the events served.
func replayDynamic(t *tree.Tree, stream [][]workload.TraceEvent, n int, tr *tracer) int64 {
	strats := make([]*dynamic.Strategy, shards)
	trackers := make([]*dynamic.OfflineTracker, shards)
	for si := range strats {
		strats[si] = dynamic.MustNew(t, numObjects, dynamic.Options{Threshold: threshold})
		trackers[si] = dynamic.NewOfflineTracker(t, numObjects)
	}
	parts := make([][]workload.TraceEvent, shards)
	var events int64
	for k := 0; k < n; k++ {
		b := stream[k%len(stream)]
		for si := range parts {
			parts[si] = parts[si][:0]
		}
		for _, e := range b {
			parts[e.Object%shards] = append(parts[e.Object%shards], e)
		}
		for si, p := range parts {
			if len(p) == 0 {
				continue
			}
			s := tr.start(-1, k)
			strats[si].ServeBatch(p)
			tr.finish(s, stDynServe)
			s = tr.start(-1, k)
			trackers[si].RecordBatch(strats[si].GroupedBatch())
			tr.finish(s, stDynRecord)
		}
		events += int64(len(b))
	}
	return events
}

// layerRun is what a traced run measured of the serving cluster and the
// layers under it.
type layerRun struct {
	batch     int           // events per batch
	wall      time.Duration // traced loop wall time
	stats     serve.Stats   // of the (last) traced cluster
	ops       dynamic.OpCounts
	resolve   *samples
	snaps     []serve.SnapshotStats
	restore   time.Duration
	dynEvents int64
	overhead  float64 // % of untraced events/s lost to tracing
}

// reportLayers sets the serve, dynamic, core, snapshot and tracing
// metrics every traced run reports.
func reportLayers(r *report, tr *tracer, lr layerRun) {
	plain, epoch := tr.stages[stIngest], tr.stages[stIngestEpoch]
	r.pct("serve.ingest_p50_us", plain, 0.5, perUS)
	r.pct("serve.ingest_p99_us", plain, 0.99, perUS)
	r.pct("serve.epoch_ingest_p50_ms", epoch, 0.5, perMS)
	r.set("serve.epoch_ingest_max_ms", float64(epoch.max())/perMS, fmt.Sprintf("n=%d", epoch.n()))
	r.set("serve.epoch_share", float64(epoch.sum())/float64(lr.wall), "epoch-pass Ingest time / traced loop time")
	dynServe := perEvent(tr.stages[stDynServe].sum(), lr.dynEvents)
	dynRecord := perEvent(tr.stages[stDynRecord].sum(), lr.dynEvents)
	r.set("serve.partition_ns_per_event",
		perEvent(plain.sum(), int64(plain.n()*lr.batch))-dynServe-dynRecord,
		"derived: Ingest without epochs - dynamic serve - record, per event")
	r.set("serve.epochs", float64(lr.stats.Epochs), "")
	r.set("serve.drifted_objects", float64(lr.stats.Drifted), "")
	r.set("serve.adopt_moved", float64(lr.stats.AdoptMoved), "")

	r.set("dynamic.serve_ns_per_event", dynServe, fmt.Sprintf("%d events, no epochs", lr.dynEvents))
	r.set("dynamic.record_ns_per_event", dynRecord, "")
	r.set("dynamic.replications", float64(lr.ops.Replications), "")
	r.set("dynamic.contractions", float64(lr.ops.Contractions), "")
	r.set("dynamic.materializations", float64(lr.ops.Materializations), "")
	r.set("dynamic.cost_per_event", float64(lr.stats.ServiceCost)/float64(lr.stats.Requests), "")

	r.pct("core.resolve_p50_ms", lr.resolve, 0.5, perMS)
	r.set("core.resolve_max_ms", float64(lr.resolve.max())/perMS, fmt.Sprintf("n=%d", lr.resolve.n()))
	r.set("core.resolve_share", float64(lr.resolve.sum())/float64(lr.wall), "solver time / traced loop time")
	yield := 0.0
	if lr.stats.Drifted > 0 {
		yield = float64(lr.ops.Adoptions) / float64(lr.stats.Drifted)
	}
	r.set("core.adopt_yield", yield, "placements changed / objects re-solved")

	cut, enc, wr := newSamples(len(lr.snaps)), newSamples(len(lr.snaps)), newSamples(len(lr.snaps))
	for _, ss := range lr.snaps {
		cut.add(int64(ss.CutStall))
		enc.add(int64(ss.EncodeElapsed))
		wr.add(int64(ss.WriteElapsed))
	}
	r.pct("snapshot.cut_stall_ms", cut, 0.5, perMS)
	r.pct("snapshot.encode_ms", enc, 0.5, perMS)
	r.pct("snapshot.write_ms", wr, 0.5, perMS)
	r.set("snapshot.bytes", float64(lr.snaps[len(lr.snaps)-1].Bytes), "")
	r.set("snapshot.restore_ms", float64(lr.restore)/perMS, "serve.Restore of the last snapshot")
	r.set("trace.overhead_pct", lr.overhead, "untraced vs traced events/s of the same work")
}

func perEvent(ns, events int64) float64 {
	if events == 0 {
		return 0
	}
	return float64(ns) / float64(events)
}

func overheadPct(events int64, untraced, traced time.Duration) float64 {
	u := float64(events) / untraced.Seconds()
	t := float64(events) / traced.Seconds()
	return (u - t) / u * 100
}

func equalLoads(traced, untraced []int64) error {
	if !slices.Equal(traced, untraced) {
		return fmt.Errorf("traced EdgeLoad %v differs from untraced %v", traced, untraced)
	}
	return nil
}

// traceNet is the traced run of a daemon workload.
func traceNet(sp spec, seed int64, seconds time.Duration, spansPath string, r *report) error {
	t := topology()
	perConn := netTrace(sp, seed, t)

	// An untraced socket run: the round trip the replayed stages must fit
	// in, and the daemon's admission counters.
	window := seconds * 2 / 5
	l, _, err := startDaemon(sp, seed)
	if err != nil {
		return err
	}
	loads, err := drive(l, sp, perConn, warmup(window), window)
	if err != nil {
		return errors.Join(err, l.close())
	}
	ds := l.d.Stats()
	if err := l.close(); err != nil {
		return err
	}
	var attempted, failed int64
	for _, ld := range loads {
		attempted += ld.attempted
		failed += ld.failed
	}

	// The batches in the order the two connections interleave them,
	// replayed in process: untraced for a quarter of the run, then
	// traced over exactly the same batches.
	var stream [][]workload.TraceEvent
	for i := range perConn[0] {
		for c := range perConn {
			stream = append(stream, perConn[c][i])
		}
	}
	base, err := replayNet(sp, stream, seconds/4, 0, nil)
	if err != nil {
		return err
	}
	tr := newTracer()
	traced, err := replayNet(sp, stream, 0, base.batches, tr)
	if err != nil {
		return err
	}
	r.check("traced replay serves the same loads as untraced", equalLoads(traced.edge, base.edge))
	dynEvents := replayDynamic(t, stream, base.batches, tr)

	r.attempted = attempted + int64(base.batches+traced.batches)
	r.failed = failed
	r.measured = window + base.wall + traced.wall
	events := int64(base.batches * sp.batch)

	var stageP50 int64
	for _, st := range []stage{stEncode, stDecode, stTail, stReply} {
		v, _ := tr.stages[st].quantile(0.5)
		stageP50 += v
	}
	ingestP50, _ := concat(tr.stages[stIngest], tr.stages[stIngestEpoch]).quantile(0.5)
	lat := merged(loads)
	rtt, beyond := lat.quantile(0.5)
	if beyond < minBeyond {
		return fmt.Errorf("socket run acknowledged too few batches (%d)", lat.n())
	}

	r.set("wire.encode_ns_per_event", perEvent(tr.stages[stEncode].sum(), events), "")
	r.set("wire.decode_ns_per_event", perEvent(tr.stages[stDecode].sum(), events), "")
	r.pct("wire.reply_ns", tr.stages[stReply], 0.5, 1)
	r.set("wire.frame_bytes_per_event", float64(traced.frameBytes)/float64(events), "")
	r.pct("wire.tail_append_p50_us", tr.stages[stTail], 0.5, perUS)
	r.pct("wire.tail_append_p99_us", tr.stages[stTail], 0.99, perUS)
	r.set("hbnd.residual_p50_us", float64(rtt-stageP50-ingestP50)/perUS,
		fmt.Sprintf("derived: socket round-trip p50 %.1f us - Σ replayed stage p50s", float64(rtt)/perUS))
	r.set("hbnd.queue_high_water", float64(ds.QueueHighWater), "socket run")
	r.set("hbnd.shed_batches", float64(ds.ShedBatches), "socket run")
	r.set("hbnd.expired_batches", float64(ds.ExpiredBatches), "socket run")
	r.set("hbnd.failed_share", float64(failed)/float64(attempted), "socket run")
	reportLayers(r, tr, layerRun{
		batch: sp.batch, wall: traced.wall, stats: traced.stats, ops: traced.ops, resolve: traced.resolve,
		snaps: traced.snaps, restore: traced.restore, dynEvents: dynEvents,
		overhead: overheadPct(events, base.wall, traced.wall),
	})
	return tr.write(spansPath, sp, seed)
}

// traceIngest is the traced run of an in-process workload, at
// Parallelism 1 so that serial stage times add up.
func traceIngest(sp spec, seed int64, seconds time.Duration, spansPath string, r *report) error {
	t := topology()
	bs, static, err := ingestTrace(sp, seed, t)
	if err != nil {
		return err
	}
	opts := clusterOptions(sp, 1)
	events := int64(len(bs) * sp.batch)
	rc := roundChecker{static: static}

	// Untraced and traced rounds alternate, so a change in machine speed
	// lands on both sides of the overhead, until the untraced side has
	// run about a third of the run length.
	tr := newTracer()
	resolve := newSamples(0)
	var base, wall time.Duration
	var baseEdge []int64
	var last *serve.Cluster
	rounds := 0
	for ; rounds == 0 || base < seconds*35/100; rounds++ {
		c, d, cost, err := ingestRound(t, opts, bs, nil, nil, nil)
		if err != nil {
			return err
		}
		base += d
		rc.add(t, c, events, cost)
		baseEdge = c.EdgeLoad()
		c.Close()

		if c, d, cost, err = ingestRound(t, opts, bs, nil, tr, nil); err != nil {
			return err
		}
		wall += d
		rc.add(t, c, events, cost)
		resolveTimes(c, resolve)
		if last != nil {
			last.Close()
		}
		last = c
	}
	defer last.Close()
	rc.report(r)
	r.check("traced rounds serve the same loads as untraced", equalLoads(last.EdgeLoad(), baseEdge))
	snaps, restore, err := snapshotLayer(last)
	if err != nil {
		return err
	}
	dynEvents := replayDynamic(t, bs, len(bs), tr)

	r.attempted = int64(rc.rounds * len(bs))
	r.measured = base + wall
	for _, m := range perLayer {
		if strings.HasPrefix(m.name, "wire.") || strings.HasPrefix(m.name, "hbnd.") {
			r.set(m.name, 0, "no daemon on this workload's path")
		}
	}
	reportLayers(r, tr, layerRun{
		batch: sp.batch, wall: wall, stats: last.Stats(), ops: last.OpCounts(), resolve: resolve,
		snaps: snaps, restore: restore, dynEvents: dynEvents,
		overhead: overheadPct(int64(rounds)*events, base, wall),
	})
	return tr.write(spansPath, sp, seed)
}
