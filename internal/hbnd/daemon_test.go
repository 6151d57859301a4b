package hbnd

import (
	"errors"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"hbn/internal/serve"
	"hbn/internal/snapshot"
	"hbn/internal/topo"
	"hbn/internal/tree"
	"hbn/internal/wire"
	"hbn/internal/workload"
)

func topoDiffRemove(v tree.NodeID) topo.Diff {
	return topo.Diff{Remove: []tree.NodeID{v}}
}

// testShape is the fixed cold-start shape every test daemon and its
// in-process reference cluster share.
const (
	tSwitches = 3
	tProcs    = 3
	tRingBW   = 4
	tSwitchBW = 8
	tObjects  = 48
	tEpoch    = 900
	tThresh   = 3
	tShards   = 4
)

func testConfig(t *testing.T) Config {
	dir := t.TempDir()
	return Config{
		Addr:          "127.0.0.1:0",
		SnapshotPath:  filepath.Join(dir, "state.snap"),
		Switches:      tSwitches,
		ProcsPerRing:  tProcs,
		RingBW:        tRingBW,
		SwitchBW:      tSwitchBW,
		NumObjects:    tObjects,
		EpochRequests: tEpoch,
		Threshold:     tThresh,
		Shards:        tShards,
		QueueCap:      16,
		Logf:          t.Logf,
	}
}

// startDaemon builds, binds and serves a daemon; the test owns shutdown.
func startDaemon(t *testing.T, cfg Config) *Daemon {
	t.Helper()
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Listen(); err != nil {
		t.Fatal(err)
	}
	go d.Serve()
	return d
}

// refCluster is the in-process twin of a test daemon's cold start.
func refCluster(t *testing.T) *serve.Cluster {
	t.Helper()
	tr := tree.SCICluster(tSwitches, tProcs, tRingBW, tSwitchBW)
	c, err := serve.NewCluster(tr, tObjects, serve.Options{
		Shards: tShards, EpochRequests: tEpoch, Threshold: tThresh,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func testTrace(n int) []workload.TraceEvent {
	tr := tree.SCICluster(tSwitches, tProcs, tRingBW, tSwitchBW)
	return workload.DriftingZipf(rand.New(rand.NewSource(7)), tr, tObjects, n, 4, 1.0, 0.07)
}

func dialTest(t *testing.T, addr string) *wire.Client {
	t.Helper()
	cl, err := wire.Dial(addr, wire.ClientOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// compareClusters asserts two clusters are observationally identical via
// the public API (the serve.TestSnapshotRestoreIdentity idiom): stats,
// per-edge aggregate and service loads, every copy set, the epoch log —
// wall-clock fields blanked because the two ran independently.
func compareClusters(t *testing.T, label string, a, b *serve.Cluster) {
	t.Helper()
	sa, sb := a.Stats(), b.Stats()
	sa.ResolveTime, sb.ResolveTime = 0, 0
	if sa != sb {
		t.Fatalf("%s: stats differ:\n  a: %+v\n  b: %+v", label, sa, sb)
	}
	if !reflect.DeepEqual(a.EdgeLoad(), b.EdgeLoad()) {
		t.Fatalf("%s: edge loads differ", label)
	}
	if !reflect.DeepEqual(a.ServiceLoad(), b.ServiceLoad()) {
		t.Fatalf("%s: service loads differ", label)
	}
	for x := 0; x < tObjects; x++ {
		if !reflect.DeepEqual(a.Copies(x), b.Copies(x)) {
			t.Fatalf("%s: object %d copies differ: %v vs %v", label, x, a.Copies(x), b.Copies(x))
		}
	}
	la, lb := a.EpochLog(), b.EpochLog()
	for i := range la {
		la[i].ResolveNs = 0
	}
	for i := range lb {
		lb[i].ResolveNs = 0
	}
	if !reflect.DeepEqual(la, lb) {
		t.Fatalf("%s: epoch logs differ:\n  a: %+v\n  b: %+v", label, la, lb)
	}
}

// ingestBoth sends trace through the wire client in fixed batches and
// applies the identical batches to the reference cluster, asserting the
// returned costs agree batch by batch.
func ingestBoth(t *testing.T, cl *wire.Client, ref *serve.Cluster, trace []workload.TraceEvent, batch int) {
	t.Helper()
	for lo := 0; lo < len(trace); lo += batch {
		hi := lo + batch
		if hi > len(trace) {
			hi = len(trace)
		}
		got, err := cl.Ingest(trace[lo:hi], 0)
		if err != nil {
			t.Fatalf("batch at %d: %v", lo, err)
		}
		want, err := ref.Ingest(trace[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("batch at %d: cost %d over the wire, %d in process", lo, got, want)
		}
	}
}

// The daemon serving a trace over a real socket is bit-identical to the
// in-process cluster serving the same batches, and the wire surface
// (query, stats, snapshot) reports the same state.
func TestDaemonEndToEnd(t *testing.T) {
	d := startDaemon(t, testConfig(t))
	ref := refCluster(t)
	defer ref.Close()

	trace := testTrace(4000)
	cl := dialTest(t, d.Addr())
	ingestBoth(t, cl, ref, trace, 128)
	compareClusters(t, "after trace", d.Cluster(), ref)

	for x := 0; x < tObjects; x++ {
		nodes, err := cl.Query(x)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(nodes, ref.Copies(x)) {
			t.Fatalf("object %d: wire copies %v, reference %v", x, nodes, ref.Copies(x))
		}
	}

	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.AcceptedEvents != int64(len(trace)) || st.Requests != int64(len(trace)) {
		t.Fatalf("accepted %d events, cluster served %d, want %d", st.AcceptedEvents, st.Requests, len(trace))
	}
	if st.ShedBatches != 0 || st.ExpiredBatches != 0 {
		t.Fatalf("unexpected shed/expired on a sequential client: %+v", st)
	}
	if st.ServiceLoadSum+st.DroppedServiceLoad != st.ServiceCost {
		t.Fatalf("ledger: ΣServiceLoad %d + dropped %d != ServiceCost %d",
			st.ServiceLoadSum, st.DroppedServiceLoad, st.ServiceCost)
	}

	sr, err := cl.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if sr.Seq != 1 || sr.Bytes <= 0 {
		t.Fatalf("bad snapshot result: %+v", sr)
	}

	if _, err := d.Drain(); err != nil {
		t.Fatal(err)
	}
	// Post-drain ingest on a fresh connection is refused (the listener is
	// closed), and on the existing connection sheds as draining.
	if _, err := cl.Ingest(trace[:1], 0); err == nil {
		t.Fatal("ingest after drain must fail")
	}
}

// A query for an object the cluster does not serve is a bad request, not
// a crash: the daemon answers CodeBadRequest and goes on answering and
// ingesting on the same connection. An object nothing has touched yet has
// no copies, and its query returns an empty node list.
func TestDaemonQueryObjectRange(t *testing.T) {
	d := startDaemon(t, testConfig(t))
	defer d.Close()
	cl := dialTest(t, d.Addr())

	for _, x := range []int{tObjects, tObjects + 1, 1 << 20} {
		_, err := cl.Query(x)
		var re *wire.RemoteError
		if !errors.As(err, &re) || re.Code != wire.CodeBadRequest {
			t.Fatalf("query for object %d: got %v, want a CodeBadRequest remote error", x, err)
		}
	}
	if _, err := cl.Stats(); err != nil {
		t.Fatalf("stats after out-of-range queries: %v", err)
	}
	nodes, err := cl.Query(5)
	if err != nil || len(nodes) != 0 {
		t.Fatalf("untouched object: nodes %v, err %v; want none and no error", nodes, err)
	}

	trace := testTrace(512)
	if _, err := cl.Ingest(trace, 0); err != nil {
		t.Fatal(err)
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.AcceptedEvents != int64(len(trace)) {
		t.Fatalf("accepted %d events, want %d", st.AcceptedEvents, len(trace))
	}
	x := trace[0].Object
	if nodes, err := cl.Query(x); err != nil || !reflect.DeepEqual(nodes, d.Cluster().Copies(x)) {
		t.Fatalf("object %d: wire copies %v (err %v), cluster %v", x, nodes, err, d.Cluster().Copies(x))
	}
}

// A TSnapshot reply reports the applier pause: it covers the cluster's
// cut and also the write, fsync, rename and tail truncate, so it exceeds
// the cut stall the cluster books into its SnapshotCut histogram for the
// same snapshot.
func TestSnapshotReplyReportsApplierPause(t *testing.T) {
	d := startDaemon(t, testConfig(t))
	defer d.Close()
	cl := dialTest(t, d.Addr())
	trace := testTrace(2000)
	for lo := 0; lo < len(trace); lo += 128 {
		if _, err := cl.Ingest(trace[lo:min(lo+128, len(trace))], 0); err != nil {
			t.Fatal(err)
		}
	}
	cut := &d.Cluster().Obs().SnapshotCut
	before := cut.Snapshot()
	sr, err := cl.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	after := cut.Snapshot()
	if after.Count != before.Count+1 {
		t.Fatalf("one snapshot RPC booked %d cuts", after.Count-before.Count)
	}
	if grew := after.Sum - before.Sum; sr.CutStallNs <= grew {
		t.Fatalf("reply stall %dns does not exceed the cluster's cut %dns", sr.CutStallNs, grew)
	}
}

// Restart recovers the exact state: snapshot mid-trace (truncating the
// tail), more traffic (tail only), abrupt close, restart → snapshot +
// tail replay equals the uninterrupted reference, and further serving
// stays identical.
func TestDaemonRestartFromSnapshotAndTail(t *testing.T) {
	cfg := testConfig(t)
	d := startDaemon(t, cfg)
	ref := refCluster(t)
	defer ref.Close()

	trace := testTrace(5000)
	cl := dialTest(t, d.Addr())
	ingestBoth(t, cl, ref, trace[:2000], 128)
	if _, err := cl.Snapshot(); err != nil {
		t.Fatal(err)
	}
	ingestBoth(t, cl, ref, trace[2000:3500], 128)
	if err := d.Close(); err != nil { // abrupt: no final snapshot
		t.Fatal(err)
	}

	d2 := startDaemon(t, cfg)
	compareClusters(t, "after restart", d2.Cluster(), ref)

	cl2 := dialTest(t, d2.Addr())
	ingestBoth(t, cl2, ref, trace[3500:], 128)
	compareClusters(t, "after restart suffix", d2.Cluster(), ref)
	if _, err := d2.Drain(); err != nil {
		t.Fatal(err)
	}

	// Drain wrote a final snapshot: a third daemon restores everything
	// with an empty tail.
	d3 := startDaemon(t, cfg)
	compareClusters(t, "after drained restart", d3.Cluster(), ref)
	if _, err := d3.Drain(); err != nil {
		t.Fatal(err)
	}
}

// pendingCalls reads the snapshot at path and returns the calls its
// pending-pass record has left until adoption (0: no pass in flight).
func pendingCalls(t *testing.T, path string) int {
	t.Helper()
	st, err := snapshot.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Pending.Calls
}

// An epoch pass spread over several batches survives a restart in the
// middle: with 32-event batches each pass runs over several applies, the
// snapshot is cut two applies into one, and the tail the restart replays
// ends two applies into another. The restarted daemon adopts both on the
// applies the uninterrupted reference does, and stays identical through
// the suffix and a drained restart.
func TestDaemonRestartMidPass(t *testing.T) {
	cfg := testConfig(t)
	d := startDaemon(t, cfg)
	ref := refCluster(t)
	defer ref.Close()

	trace := testTrace(4000)
	cl := dialTest(t, d.Addr())
	// The pass folded at 900 requests starts on the 29th batch (928).
	ingestBoth(t, cl, ref, trace[:960], 32)
	if _, err := cl.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if pendingCalls(t, cfg.SnapshotPath) == 0 {
		t.Fatal("the snapshot records no pass in flight")
	}
	// The one folded at 1800 starts on the 57th (1824).
	ingestBoth(t, cl, ref, trace[960:1856], 32)
	if err := d.Close(); err != nil { // abrupt: no final snapshot
		t.Fatal(err)
	}

	d2 := startDaemon(t, cfg)
	compareClusters(t, "after restart", d2.Cluster(), ref)
	cl2 := dialTest(t, d2.Addr())
	ingestBoth(t, cl2, ref, trace[1856:2752], 32)
	compareClusters(t, "after restart suffix", d2.Cluster(), ref)
	if _, err := d2.Drain(); err != nil {
		t.Fatal(err)
	}
	if pendingCalls(t, cfg.SnapshotPath) == 0 {
		t.Fatal("the drain snapshot records no pass in flight")
	}
	d3 := startDaemon(t, cfg)
	compareClusters(t, "after drained restart", d3.Cluster(), ref)
	cl3 := dialTest(t, d3.Addr())
	ingestBoth(t, cl3, ref, trace[2752:], 32)
	compareClusters(t, "after drained restart suffix", d3.Cluster(), ref)
	if _, err := d3.Drain(); err != nil {
		t.Fatal(err)
	}
}

// A batch whose deadline budget expires while queued is dropped before
// reaching the cluster: the client gets ErrExpired, the ledger records
// it as expired, and the cluster never served it.
func TestDaemonDeadlineExpiresQueuedWork(t *testing.T) {
	d := startDaemon(t, testConfig(t))
	defer d.Close()
	cl := dialTest(t, d.Addr())

	// Seed one applied batch so counters are non-trivial.
	if _, err := cl.Ingest(testTrace(8), 0); err != nil {
		t.Fatal(err)
	}

	// Pause the applier at a batch boundary, let a budgeted batch rot in
	// the queue past its deadline, then release.
	d.applyMu.Lock()
	errc := make(chan error, 1)
	go func() {
		_, err := cl.Ingest(testTrace(8), 30*time.Millisecond)
		errc <- err
	}()
	time.Sleep(80 * time.Millisecond)
	d.applyMu.Unlock()
	if err := <-errc; !errors.Is(err, wire.ErrExpired) {
		t.Fatalf("err = %v, want ErrExpired", err)
	}

	st := d.Stats()
	if st.ExpiredBatches != 1 || st.ExpiredEvents != 8 {
		t.Fatalf("expired counters: %+v", st)
	}
	if st.Requests != 8 {
		t.Fatalf("cluster served %d requests, want 8 (expired batch must not reach it)", st.Requests)
	}
	if st.AcceptedEvents != st.Requests {
		t.Fatalf("ledger: accepted %d != served %d", st.AcceptedEvents, st.Requests)
	}
}

// Reconfigure over the wire applies the diff, commits a fresh snapshot
// (the tail is topology-bound), and a restart serves the new topology.
func TestDaemonReconfigureOverWire(t *testing.T) {
	cfg := testConfig(t)
	d := startDaemon(t, cfg)
	cl := dialTest(t, d.Addr())

	trace := testTrace(1500)
	for lo := 0; lo < len(trace); lo += 128 {
		hi := min(lo+128, len(trace))
		if _, err := cl.Ingest(trace[lo:hi], 0); err != nil {
			t.Fatal(err)
		}
	}
	before := d.Cluster().Tree().Len()

	// Remove one leaf ring's processor: pick the last leaf.
	leaves := d.Cluster().Tree().Leaves()
	victim := leaves[len(leaves)-1]
	res, err := cl.Reconfigure(&wire.ReconfigRequest{Diff: topoDiffRemove(victim)})
	if err != nil {
		t.Fatal(err)
	}
	// The reported stall is the applier pause, which spans the whole
	// reconfiguration (its epoch-log ResolveNs) plus the commit snapshot.
	log := d.Cluster().EpochLog()
	rec := log[len(log)-1]
	if rec.Trigger != serve.TriggerManual {
		t.Fatalf("last epoch-log entry %+v is not the reconfigure", rec)
	}
	if res.MaxIngestStallNs < rec.ResolveNs {
		t.Fatalf("reported stall %dns is shorter than the reconfigure's %dns", res.MaxIngestStallNs, rec.ResolveNs)
	}
	after := d.Cluster().Tree().Len()
	if after >= before {
		t.Fatalf("tree did not shrink: %d -> %d", before, after)
	}
	st := d.Stats()
	if st.Reconfigs != 1 {
		t.Fatalf("reconfigs = %d, want 1", st.Reconfigs)
	}
	if st.ServiceLoadSum+st.DroppedServiceLoad != st.ServiceCost {
		t.Fatalf("ledger after reconfigure: ΣServiceLoad %d + dropped %d != ServiceCost %d",
			st.ServiceLoadSum, st.DroppedServiceLoad, st.ServiceCost)
	}
	if res.DroppedServiceLoad != st.DroppedServiceLoad {
		t.Fatalf("reply dropped %d, stats dropped %d", res.DroppedServiceLoad, st.DroppedServiceLoad)
	}

	// The acknowledged reconfigure survives an abrupt restart.
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2 := startDaemon(t, cfg)
	defer d2.Close()
	if got := d2.Cluster().Tree().Len(); got != after {
		t.Fatalf("restarted tree has %d nodes, want %d", got, after)
	}
	if got := d2.Cluster().Stats().Reconfigs; got != 1 {
		t.Fatalf("restarted reconfigs = %d, want 1", got)
	}
}

// A standby daemon refuses serving traffic with the typed standby error.
func TestStandbyRejectsServing(t *testing.T) {
	cfg := testConfig(t)
	cfg.Standby = true
	d := startDaemon(t, cfg)
	defer d.Close()
	cl := dialTest(t, d.Addr())

	if _, err := cl.Ingest(testTrace(4), 0); !errors.Is(err, wire.ErrStandby) {
		t.Fatalf("ingest on standby: err = %v, want ErrStandby", err)
	}
	if _, err := cl.Query(1); !errors.Is(err, wire.ErrStandby) {
		t.Fatalf("query on standby: err = %v, want ErrStandby", err)
	}
	// Stats still answers (operational visibility).
	if _, err := cl.Stats(); err != nil {
		t.Fatal(err)
	}
}

// raceEnabled is set by raceenabled_test.go in -race builds.
var raceEnabled bool

// An acknowledged batch costs the daemon no allocation once warm: the
// handler parses into the connection's event buffer, applies on its own
// goroutine, encodes the tail frame into the daemon's reused buffer and
// replies into the connection's body buffer. Epochs are off, because an
// epoch pass allocates.
func TestIngestHandlerSteadyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	cfg := testConfig(t)
	cfg.EpochRequests = 1 << 40
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const batch, frames = 16, 256
	trace := testTrace(batch * frames)
	fs := make([]wire.Frame, frames)
	for i := range fs {
		fs[i] = wire.Frame{
			Type: wire.TIngest,
			Seq:  uint64(i + 1),
			Body: wire.AppendIngestBody(nil, 0, trace[i*batch:(i+1)*batch]),
		}
	}
	var body []byte
	var events []serve.Request
	i := 0
	ingest := func() {
		var typ wire.Type
		typ, body, events = d.handleIngest(fs[i%frames], body, events)
		i++
		if typ != wire.TIngestOK {
			t.Fatalf("reply %v, want %v", typ, wire.TIngestOK)
		}
	}
	for range 4 * frames {
		ingest()
	}
	if allocs := testing.AllocsPerRun(1000, ingest); allocs != 0 {
		t.Errorf("acknowledged 16-event batch allocates %.2f objects, want 0", allocs)
	}
}

// Close reports a tail log that cannot be synced or closed instead of
// dropping the error; after a Drain, which closes the tail itself, Close
// returns nil.
func TestCloseReportsTailErrors(t *testing.T) {
	d := startDaemon(t, testConfig(t))
	cl := dialTest(t, d.Addr())
	if _, err := cl.Ingest(testTrace(64), 0); err != nil {
		t.Fatal(err)
	}
	if err := d.tail.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err == nil {
		t.Fatal("Close returned nil with the tail log already closed")
	}

	d2 := startDaemon(t, testConfig(t))
	if _, err := d2.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := d2.Close(); err != nil {
		t.Fatalf("Close after Drain: %v", err)
	}
}
