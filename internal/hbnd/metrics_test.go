package hbnd

import (
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hbn/internal/obs"
	"hbn/internal/wire"
)

// The MsgStats export must be the same ledger the wire Stats frame
// reports — per-shard rows summing to cluster totals, histograms
// populated by real traffic, and a flight recorder that captured the
// epochs that traffic caused.
func TestMsgStatsMatchesDaemonStats(t *testing.T) {
	d := startDaemon(t, testConfig(t))
	defer d.Close()
	cl := dialTest(t, d.Addr())

	trace := testTrace(3000)
	for lo := 0; lo < len(trace); lo += 100 {
		if _, err := cl.Ingest(trace[lo:lo+100], 0); err != nil {
			t.Fatal(err)
		}
	}

	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	ms, err := cl.MsgStats()
	if err != nil {
		t.Fatal(err)
	}

	if len(ms.ShardEvents) != tShards {
		t.Fatalf("export has %d shard rows, want %d", len(ms.ShardEvents), tShards)
	}
	var events, cost, batches int64
	for i := range ms.ShardEvents {
		events += ms.ShardEvents[i]
		cost += ms.ShardCost[i]
		batches += ms.ShardBatches[i]
	}
	if events != st.Requests {
		t.Fatalf("shard events sum %d != stats requests %d", events, st.Requests)
	}
	if cost != st.ServiceCost {
		t.Fatalf("shard cost sum %d != stats service cost %d", cost, st.ServiceCost)
	}
	if batches == 0 {
		t.Fatal("no shard batches recorded")
	}
	if ms.QueueCap != st.QueueCap || ms.QueueHighWater != st.QueueHighWater {
		t.Fatalf("queue gauges (cap %d, hw %d) != stats (cap %d, hw %d)",
			ms.QueueCap, ms.QueueHighWater, st.QueueCap, st.QueueHighWater)
	}

	// 3000 events across 900-request epochs: the epoch_pass and apply
	// histograms must have fired, and the flight recorder must hold the
	// epoch story.
	hists := map[string]int64{}
	for _, h := range ms.Hists {
		hists[h.Name] = h.Count
	}
	if hists["epoch_pass"] != st.Epochs {
		t.Fatalf("epoch_pass count %d != stats epochs %d", hists["epoch_pass"], st.Epochs)
	}
	if hists["apply"] == 0 {
		t.Fatal("apply histogram empty after 30 applied batches")
	}
	var epochEvents int64
	for _, ev := range ms.Flight {
		if ev.Kind == obs.EvEpoch {
			epochEvents++
		}
	}
	if epochEvents != st.Epochs {
		t.Fatalf("flight recorder holds %d epoch events, stats says %d epochs", epochEvents, st.Epochs)
	}
}

// The admit_wait histogram books exactly one sample per admitted batch
// that reaches the apply lock: with no Ingest errors, its count at
// quiescence equals AcceptedBatches + ExpiredBatches, and the MsgStats
// frame and the Prometheus text carry that count.
func TestAdmitWaitCountsEveryAdmittedBatch(t *testing.T) {
	d := startDaemon(t, testConfig(t))
	defer d.Close()
	cl := dialTest(t, d.Addr())
	trace := testTrace(2000)
	for lo := 0; lo < len(trace); lo += 100 {
		if _, err := cl.Ingest(trace[lo:lo+100], 0); err != nil {
			t.Fatal(err)
		}
	}

	// One batch waits behind a held apply lock past its budget.
	d.applyMu.Lock()
	errc := make(chan error, 1)
	go func() {
		_, err := cl.Ingest(trace[:8], time.Millisecond)
		errc <- err
	}()
	for i := 0; d.Stats().QueueLen == 0; i++ {
		if i == 2000 {
			d.applyMu.Unlock()
			t.Fatal("the budgeted batch never queued behind the held lock")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // well past the 1 ms budget
	d.applyMu.Unlock()
	if err := <-errc; !errors.Is(err, wire.ErrExpired) {
		t.Fatalf("err = %v, want ErrExpired", err)
	}

	st := d.Stats()
	want := st.AcceptedBatches + st.ExpiredBatches
	if st.ExpiredBatches != 1 || st.AcceptedBatches != 20 {
		t.Fatalf("accepted %d, expired %d batches, want 20 and 1", st.AcceptedBatches, st.ExpiredBatches)
	}
	if got := d.Cluster().Obs().AdmitWait.Snapshot().Count; got != want {
		t.Fatalf("admit_wait count %d != accepted + expired %d", got, want)
	}
	ms, err := cl.MsgStats()
	if err != nil {
		t.Fatal(err)
	}
	var exported int64 = -1
	for _, h := range ms.Hists {
		if h.Name == "admit_wait" {
			exported = h.Count
		}
	}
	if exported != want {
		t.Fatalf("MsgStats admit_wait count %d, want %d", exported, want)
	}
	rec := httptest.NewRecorder()
	d.MetricsHandler(false).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if line := fmt.Sprintf("hbn_admit_wait_ns_count %d\n", want); !strings.Contains(rec.Body.String(), line) {
		t.Fatalf("metrics text lacks %q", line)
	}
}

// A standby daemon (no cluster yet) still answers TMsgStats with its
// admission gauges and nothing else.
func TestMsgStatsStandby(t *testing.T) {
	cfg := testConfig(t)
	cfg.Standby = true
	d := startDaemon(t, cfg)
	defer d.Close()
	cl := dialTest(t, d.Addr())

	ms, err := cl.MsgStats()
	if err != nil {
		t.Fatal(err)
	}
	if ms.ShardEvents != nil || ms.Hists != nil || ms.Flight != nil {
		t.Fatalf("standby export carries cluster telemetry: %+v", ms)
	}
	if ms.QueueCap != int64(cfg.QueueCap) {
		t.Fatalf("standby queue cap %d, want %d", ms.QueueCap, cfg.QueueCap)
	}
}

// The /metrics endpoint renders the same registry in Prometheus text
// format, and the pprof mux is mounted only when asked for.
func TestMetricsHTTPEndpoint(t *testing.T) {
	d := startDaemon(t, testConfig(t))
	defer d.Close()
	cl := dialTest(t, d.Addr())
	if _, err := cl.Ingest(testTrace(1000), 0); err != nil {
		t.Fatal(err)
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(d.MetricsHandler(true))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	text := string(body)

	// Per-shard rows sum to the ledger total, read back out of the
	// rendered exposition text like a scraper would.
	var shardSum int64
	var shardRows int
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "hbn_shard_events_total{") {
			continue
		}
		v, err := parseShardRow(line)
		if err != nil {
			t.Fatalf("unparseable shard row %q: %v", line, err)
		}
		shardRows++
		shardSum += v
	}
	if shardRows != tShards {
		t.Fatalf("scraped %d shard rows, want %d", shardRows, tShards)
	}
	if shardSum != st.Requests {
		t.Fatalf("scraped shard events %d != stats requests %d", shardSum, st.Requests)
	}

	for _, want := range []string{
		"# TYPE hbn_shard_events_total counter",
		"# TYPE hbn_queue_len gauge",
		"# TYPE hbn_ingest_batch_ns histogram",
		"hbn_ingest_batch_ns_bucket{le=\"+Inf\"}",
		"hbn_ingest_batch_ns_count",
		"hbn_edge_load{edge=\"0\"}",
		"hbn_drift_epochs_total",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}

	// Histogram buckets must be cumulative: the +Inf bucket equals _count.
	if !histInfMatchesCount(t, text, "hbn_ingest_batch_ns") {
		t.Fatal("hbn_ingest_batch_ns +Inf bucket != count")
	}

	// pprof is mounted when requested...
	if resp, err := srv.Client().Get(srv.URL + "/debug/pprof/"); err != nil || resp.StatusCode != 200 {
		t.Fatalf("pprof index: %v (status %v)", err, resp)
	} else {
		resp.Body.Close()
	}
	// ...and absent when not.
	bare := httptest.NewServer(d.MetricsHandler(false))
	defer bare.Close()
	if resp, err := bare.Client().Get(bare.URL + "/debug/pprof/"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode == 200 {
			t.Fatal("pprof served without -pprof")
		}
	}
}

// parseShardRow pulls the value out of a `name{shard="N"} V` line.
func parseShardRow(line string) (int64, error) {
	end := strings.Index(line, "\"} ")
	if end < 0 {
		return 0, errMalformedRow
	}
	return atoi64Strict(line[end+3:])
}

var errMalformedRow = io.ErrUnexpectedEOF

func atoi64Strict(s string) (int64, error) {
	var v int64
	if s == "" {
		return 0, errMalformedRow
	}
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0, errMalformedRow
		}
		v = v*10 + int64(c-'0')
	}
	return v, nil
}

// histInfMatchesCount checks the cumulative-bucket invariant for one
// rendered histogram.
func histInfMatchesCount(t *testing.T, text, name string) bool {
	t.Helper()
	var inf, count int64
	var sawInf, sawCount bool
	for _, line := range strings.Split(text, "\n") {
		if rest, okk := strings.CutPrefix(line, name+"_bucket{le=\"+Inf\"} "); okk {
			v, err := atoi64Strict(rest)
			if err != nil {
				t.Fatalf("bad +Inf row %q", line)
			}
			inf, sawInf = v, true
		}
		if rest, okk := strings.CutPrefix(line, name+"_count "); okk {
			v, err := atoi64Strict(rest)
			if err != nil {
				t.Fatalf("bad count row %q", line)
			}
			count, sawCount = v, true
		}
	}
	return sawInf && sawCount && inf == count && count > 0
}
