package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"

	"hbn/internal/core"
	"hbn/internal/snapshot"
	"hbn/internal/topo"
	"hbn/internal/tree"
	"hbn/internal/workload"
)

// passEvent is one piece of pass work the pass hook saw.
type passEvent struct {
	call    int
	stage   string
	objects int
}

// recordPasses installs a pass hook on c that appends to the returned
// slice; the test resets it between calls.
func recordPasses(c *Cluster) *[]passEvent {
	var evs []passEvent
	c.passHook = func(call int, stage string, objects int) {
		evs = append(evs, passEvent{call, stage, objects})
	}
	return &evs
}

// finishPass completes the pass in flight, as a pass run inline would
// have on the call that started it.
func finishPass(t *testing.T, c *Cluster) {
	t.Helper()
	c.epochMu.Lock()
	defer c.epochMu.Unlock()
	if err := c.finishPassLocked(); err != nil {
		t.Fatal(err)
	}
}

// The slice plan on the bench shape (ingest-drift traffic, 1024-event
// batches, a pass every 20000 requests, 2 shards, threshold 8), counted
// in objects and stages, never in time. Call i of a pass runs pass work
// only when i is a multiple of passSpacing: call 0, the one that crosses
// the boundary, folds n objects and runs Steps 1–2 on the first ⌈n/2⌉;
// call passSpacing runs them on the other ⌊n/2⌋ and Step 3; call
// 2·passSpacing the per-object finish of the refreshed objects (at least
// the n) and the re-evaluation; and call 3·passSpacing adopts, which is
// the only call whose epoch count moves. The first pass, with no solver
// armed, runs its Solve on the crossing call. No other call runs pass
// work.
func TestEpochPassSlicePlan(t *testing.T) {
	tr := tree.SCICluster(8, 8, 32, 16)
	const objects, batch, epoch = 1024, 1024, 20000
	trace := workload.DriftingZipf(rand.New(rand.NewSource(1)), tr, objects, 8*epoch+(passCalls+2)*batch, 6, 1.0, 0.03)
	c, err := NewCluster(tr, objects, Options{Shards: 2, Threshold: 8, EpochRequests: epoch})
	if err != nil {
		t.Fatal(err)
	}
	evs := recordPasses(c)
	started, adopted := -1, 0
	var n int
	var folded int64
	for k, lo := 0, 0; lo+batch <= len(trace); k, lo = k+1, lo+batch {
		*evs = (*evs)[:0]
		epochs := c.Stats().Epochs
		if _, err := c.Ingest(trace[lo : lo+batch]); err != nil {
			t.Fatal(err)
		}
		got := *evs
		first := adopted == 0 // the first pass Solves on its crossing call
		var want []passEvent
		switch i := k - started; {
		case lo/epoch != (lo+batch)/epoch:
			if started >= 0 {
				t.Fatalf("call %d crosses while the pass started at call %d is in flight", k, started)
			}
			started, folded = k, int64(lo+batch)
			if len(got) > 0 {
				n = got[0].objects
			}
			want = []passEvent{{0, "fold", n}, {0, core.StageObjects.String(), (n + 1) / 2}}
			if first {
				want[1] = passEvent{0, "solve", objects}
			}
		case started < 0 || first && i < passCalls-1:
		case i == passSpacing:
			want = []passEvent{{i, core.StageObjects.String(), n / 2}, {i, core.StageMapping.String(), 1}}
			if n/2 == 0 { // one object: Steps 1–2 ran whole on the crossing call
				want = want[1:]
			}
		case i == 2*passSpacing:
			m := n
			if len(got) > 0 && got[0].objects >= n {
				m = got[0].objects // the changed objects and those Step 3 moved
			}
			want = []passEvent{{i, core.StageFinish.String(), m}, {i, core.StageReport.String(), 1}}
		case i == passCalls-1:
			want = []passEvent{{i, "adopt", objects}}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("call %d (pass started at call %d, %d drifted): pass work %+v, want %+v", k, started, n, got, want)
		}
		moved := c.Stats().Epochs - epochs
		if started >= 0 && k-started == passCalls-1 {
			log := c.EpochLog()
			if moved != 1 || log[len(log)-1].Requests != folded {
				t.Fatalf("call %d: %d passes adopted, the last folded at %d requests; want one, folded at %d", k, moved, log[len(log)-1].Requests, folded)
			}
			adopted++
			started = -1
		} else if moved != 0 {
			t.Fatalf("call %d: a pass adopted off the plan (started at call %d)", k, started)
		}
	}
	if adopted != 8 {
		t.Fatalf("%d passes adopted, want 8", adopted)
	}
}

// A sliced pass is the inline pass, adopted later. Over the topology zoo
// at 1–3 shards and Parallelism 1–2, with the drift trigger off and
// armed, a cluster serving 25-event batches (so every pass is sliced)
// runs beside a twin whose passes are completed on the call that starts
// them. Adoption timing does not feed back into what a fold sees — the
// trackers record every request whatever the copy sets — so the two fold
// the same rows, and the sliced cluster's log matches the twin's in
// every field but the wall time, the adoption's movement and the max
// edge load after it. Each sliced pass adopts exactly the copy sets a
// fresh Solve gives for its fold. Parallelism 1 and 4 then give the same
// epoch log, loads and copy sets.
func TestSlicedPassIsInlinePass(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(4, runtime.GOMAXPROCS(0))))
	rng := rand.New(rand.NewSource(5))
	trees := testTrees(rng)
	for ti, tc := range trees {
		for shards := 1; shards <= 3; shards++ {
			for _, drift := range []float64{0, 0.2} {
				t.Run(fmt.Sprintf("%s%d/shards=%d/drift=%v", tc.name, ti, shards, drift), func(t *testing.T) {
					const objects, batch = 24, 25
					trace := workload.DriftingZipf(rand.New(rand.NewSource(int64(ti))), tc.tr, objects, 6000, 4, 1.0, 0.06)
					opts := Options{Shards: shards, EpochRequests: 600, Threshold: 3, DriftThreshold: drift}
					if drift > 0 {
						opts.DriftCheckRequests = 300
					}
					var sliced [2]*Cluster
					for i, parallelism := range []int{1 + ti%2, 4} {
						opts.Parallelism = parallelism
						s, err := NewCluster(tc.tr, objects, opts)
						if err != nil {
							t.Fatal(err)
						}
						inline, err := NewCluster(tc.tr, objects, opts)
						if err != nil {
							t.Fatal(err)
						}
						var folds []*workload.W
						s.passHook = func(_ int, stage string, _ int) {
							if stage == "fold" {
								folds = append(folds, s.w.Clone())
							}
						}
						for lo := 0; lo < len(trace); lo += batch {
							b := trace[lo:min(lo+batch, len(trace))]
							epochs := s.Stats().Epochs
							if _, err := s.Ingest(b); err != nil {
								t.Fatal(err)
							}
							if _, err := inline.Ingest(b); err != nil {
								t.Fatal(err)
							}
							finishPass(t, inline)
							if s.Stats().Epochs == epochs {
								continue
							}
							// Adopted on this call: the fold's fresh Solve.
							log := s.EpochLog()
							w := folds[len(log)-1]
							res, err := core.Solve(tc.tr, w, core.Options{MappingRoot: tree.None})
							if err != nil {
								t.Fatal(err)
							}
							for x := 0; x < objects; x++ {
								if cs := res.Final.Copies[x]; len(cs) > 0 {
									want := make([]tree.NodeID, 0, len(cs))
									for _, cp := range cs {
										want = append(want, cp.Node)
									}
									slices.Sort(want)
									if got := s.Copies(x); !slices.Equal(got, want) {
										t.Fatalf("pass %d, object %d: adopted %v, fresh Solve of the fold %v", len(log), x, got, want)
									}
								}
							}
						}
						finishPass(t, s)
						ls, li := s.EpochLog(), inline.EpochLog()
						if len(ls) != len(li) || len(ls) < 4 {
							t.Fatalf("%d sliced passes, %d inline", len(ls), len(li))
						}
						for k := range ls {
							a, b := ls[k], li[k]
							a.ResolveNs, a.Moved, a.MaxEdgeLoad = 0, 0, 0
							b.ResolveNs, b.Moved, b.MaxEdgeLoad = 0, 0, 0
							if a != b {
								t.Fatalf("pass %d: sliced %+v, inline %+v", k+1, a, b)
							}
						}
						if drift > 0 && s.Stats().DriftEpochs == 0 {
							t.Fatal("the drift trigger never fired")
						}
						sliced[i] = s
					}
					compareClusters(t, "parallelism 1 vs 4", sliced[0], sliced[1], objects, true)
				})
			}
		}
	}
}

// A snapshot cut at any call of a sliced pass records it and never
// completes it: the image equals the copy-based oracle's and carries the
// calls left until adoption, and a cluster recovered from it — through
// Restore from the file and through RestoreState of the decoded image —
// equals the source at the cut, adopts on the same call and serves the
// rest of the trace bit-identically, through later passes.
func TestSnapshotMidPassRestore(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, tc := range testTrees(rng)[2:5] {
		for _, shards := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/shards=%d", tc.name, shards), func(t *testing.T) {
				const objects, batch = 32, 30
				trace := workload.DriftingZipf(rand.New(rand.NewSource(8)), tc.tr, objects, 6000, 4, 1.0, 0.07)
				c, err := NewCluster(tc.tr, objects, Options{Shards: shards, EpochRequests: 800, Threshold: 3})
				if err != nil {
					t.Fatal(err)
				}
				dir := t.TempDir()
				var recovered []*Cluster
				cuts := 0
				for lo := 0; lo < len(trace); lo += batch {
					if _, err := c.Ingest(trace[lo:min(lo+batch, len(trace))]); err != nil {
						t.Fatal(err)
					}
					for _, r := range recovered {
						if _, err := r.Ingest(trace[lo:min(lo+batch, len(trace))]); err != nil {
							t.Fatal(err)
						}
						if r.Stats().Epochs != c.Stats().Epochs {
							t.Fatalf("batch at %d: recovered cluster at %d passes, source at %d", lo, r.Stats().Epochs, c.Stats().Epochs)
						}
					}
					// Cut after each call of the second pass, from the one
					// that starts it to the one that adopts it.
					if cuts == passCalls || cuts == 0 && (c.Stats().Epochs < 1 || !c.inFlight.Load()) {
						continue
					}
					cuts++
					path := filepath.Join(dir, fmt.Sprintf("cut%d.hbn", cuts))
					st := checkImageAgainstOracle(t, c, path)
					if want := passCalls - cuts; st.Pending.Calls != want {
						t.Fatalf("cut %d: image records a pass %d calls from adoption, want %d", cuts, st.Pending.Calls, want)
					}
					r, _, err := Restore(path, RestoreOptions{})
					if err != nil {
						t.Fatal(err)
					}
					r2, err := RestoreState(st, RestoreOptions{Parallelism: 1})
					if err != nil {
						t.Fatal(err)
					}
					compareClusters(t, fmt.Sprintf("cut %d, at the cut", cuts), c, r, objects, false)
					compareClusters(t, fmt.Sprintf("cut %d, at the cut (decoded)", cuts), c, r2, objects, false)
					recovered = append(recovered, r, r2)
				}
				if len(recovered) < 2*passCalls {
					t.Fatalf("only %d recovered clusters", len(recovered))
				}
				for i, r := range recovered {
					compareClusters(t, fmt.Sprintf("recovered %d after the suffix", i), c, r, objects, true)
				}
			})
		}
	}
}

// A pass in flight is completed before anything that needs the solver or
// a settled placement: the next crossing, a drift check, ResolveNow and
// Reconfigure each adopt it first, on their own call; a snapshot records
// it without completing it; and Close drops it.
func TestPendingPassCompletedFirst(t *testing.T) {
	tr := tree.SCICluster(3, 4, 16, 8)
	const objects = 24
	trace := workload.DriftingZipf(rand.New(rand.NewSource(3)), tr, objects, 20000, 3, 1.0, 0.05)
	// start serves 25-event batches until a pass is in flight and returns
	// the cluster and the events served.
	start := func(opts Options) (*Cluster, int) {
		t.Helper()
		c, err := NewCluster(tr, objects, opts)
		if err != nil {
			t.Fatal(err)
		}
		lo := 0
		for ; c.Stats().Epochs < 2 || !c.inFlight.Load() || c.served.Load()%1000 >= 500; lo += 25 {
			if _, err := c.Ingest(trace[lo : lo+25]); err != nil {
				t.Fatal(err)
			}
		}
		if c.pass.calls != 1 {
			t.Fatalf("the pass in flight ran %d calls, want the one that started it", c.pass.calls)
		}
		return c, lo
	}
	// adoptedFirst requires the pass in flight, folded at req requests, to
	// be the log's entry after the first `before` ones.
	adoptedFirst := func(what string, c *Cluster, before int, req int64) {
		t.Helper()
		log := c.EpochLog()
		if len(log) <= before || log[before].Requests != req {
			t.Fatalf("%s: log has %d passes after %d; want the pass folded at %d requests adopted next", what, len(log), before, req)
		}
		if c.inFlight.Load() && len(log) == before+1 {
			t.Fatalf("%s: the pass is still in flight", what)
		}
	}
	opts := Options{Shards: 2, EpochRequests: 1000, Threshold: 3}

	t.Run("next crossing", func(t *testing.T) {
		c, lo := start(opts)
		before, req := len(c.EpochLog()), c.pass.rec.Requests
		// One batch that crosses the next boundary, long enough to run
		// its own pass inline.
		if _, err := c.Ingest(trace[lo : lo+1000]); err != nil {
			t.Fatal(err)
		}
		adoptedFirst("crossing", c, before, req)
		if log := c.EpochLog(); len(log) != before+2 || c.inFlight.Load() {
			t.Fatalf("crossing: %d passes logged after %d, in flight %v; want the old and the new one, inline", len(log), before, c.inFlight.Load())
		}
	})
	t.Run("drift check", func(t *testing.T) {
		o := opts
		o.DriftThreshold, o.DriftCheckRequests = 0.1, 500
		c, lo := start(o)
		before, req := len(c.EpochLog()), c.pass.rec.Requests
		// Up to the next drift check, which start left short of the next
		// crossing.
		n := 500 - int(c.served.Load()%500)
		if _, err := c.Ingest(trace[lo : lo+n]); err != nil {
			t.Fatal(err)
		}
		adoptedFirst("drift check", c, before, req)
	})
	t.Run("ResolveNow", func(t *testing.T) {
		c, _ := start(opts)
		before, req := len(c.EpochLog()), c.pass.rec.Requests
		if err := c.ResolveNow(); err != nil {
			t.Fatal(err)
		}
		adoptedFirst("ResolveNow", c, before, req)
	})
	t.Run("Reconfigure", func(t *testing.T) {
		c, _ := start(opts)
		before, req := len(c.EpochLog()), c.pass.rec.Requests
		if _, err := c.Reconfigure(topo.Diff{Remove: []tree.NodeID{tr.Leaves()[0]}}); err != nil {
			t.Fatal(err)
		}
		adoptedFirst("Reconfigure", c, before, req)
		if log := c.EpochLog(); len(log) != before+2 || c.Stats().Reconfigs != 1 {
			t.Fatalf("Reconfigure: %d passes logged after %d; want the pass, then the reconfiguration", len(log), before)
		}
	})
	t.Run("Snapshot", func(t *testing.T) {
		c, lo := start(opts)
		before, left := len(c.EpochLog()), passCalls-c.pass.calls
		path := filepath.Join(t.TempDir(), "s.hbn")
		if _, err := c.Snapshot(path); err != nil {
			t.Fatal(err)
		}
		if len(c.EpochLog()) != before || !c.inFlight.Load() {
			t.Fatal("Snapshot completed the pass in flight")
		}
		for i := 0; i < left; i++ {
			if len(c.EpochLog()) != before {
				t.Fatalf("adopted %d calls after the snapshot, want %d", i, left)
			}
			if _, err := c.Ingest(trace[lo : lo+25]); err != nil {
				t.Fatal(err)
			}
			lo += 25
		}
		if len(c.EpochLog()) != before+1 {
			t.Fatalf("not adopted %d calls after the snapshot", left)
		}
	})
	t.Run("Close", func(t *testing.T) {
		c, lo := start(opts)
		before := c.Stats()
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if c.inFlight.Load() || c.Stats() != before {
			t.Fatalf("Close adopted the pass in flight: %+v after %+v", c.Stats(), before)
		}
		if _, err := c.Ingest(trace[lo : lo+25]); !errors.Is(err, ErrClosed) {
			t.Fatalf("Ingest after Close: %v", err)
		}
		path := filepath.Join(t.TempDir(), "s.hbn")
		if _, err := c.Snapshot(path); err != nil {
			t.Fatal(err)
		}
		st, err := snapshot.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if st.Pending.Calls != 0 {
			t.Fatalf("a closed cluster's image records a pass %d calls from adoption", st.Pending.Calls)
		}
	})
}

// The epoch_stall histogram observes the pass work of each Ingest call
// that ran any, and epoch_pass each adopted pass: over sliced and inline
// passes served through Ingest alone, the stall count equals the calls
// that ran a slice, the pass count the passes, and both sums equal the
// epoch log's Σ ResolveNs.
func TestEpochStallHistogram(t *testing.T) {
	tr := tree.SCICluster(3, 4, 16, 8)
	const objects = 24
	trace := workload.DriftingZipf(rand.New(rand.NewSource(4)), tr, objects, 24000, 4, 1.0, 0.05)
	c, err := NewCluster(tr, objects, Options{Shards: 2, EpochRequests: 1000, Threshold: 3})
	if err != nil {
		t.Fatal(err)
	}
	evs := recordPasses(c)
	sliceCalls, inline := 0, 0
	for lo, k := 0, 0; lo < len(trace) || c.inFlight.Load(); k++ {
		n := 20
		if k%97 == 96 {
			n = 1200 // a long batch: its pass, if it starts one, runs inline
		}
		b := trace[lo%len(trace) : min(lo%len(trace)+n, len(trace))]
		lo += len(b)
		*evs = (*evs)[:0]
		epochs := c.Stats().Epochs
		if _, err := c.Ingest(b); err != nil {
			t.Fatal(err)
		}
		if len(*evs) > 0 {
			sliceCalls++
		}
		if c.Stats().Epochs > epochs && (*evs)[0].stage == "fold" {
			inline++
		}
	}
	var sum int64
	log := c.EpochLog()
	for _, e := range log {
		sum += e.ResolveNs
	}
	stall, pass := c.Obs().EpochStall.Snapshot(), c.Obs().EpochPass.Snapshot()
	if stall.Count != int64(sliceCalls) || stall.Sum != sum {
		t.Fatalf("epoch_stall: %d samples summing to %d ns; want %d calls with pass work and Σ ResolveNs %d", stall.Count, stall.Sum, sliceCalls, sum)
	}
	if pass.Count != int64(len(log)) || pass.Sum != sum {
		t.Fatalf("epoch_pass: %d samples summing to %d ns; want %d passes and Σ ResolveNs %d", pass.Count, pass.Sum, len(log), sum)
	}
	if inline == 0 || len(log) <= inline || sliceCalls <= len(log) {
		t.Fatalf("%d passes, %d inline, %d calls with pass work: the trace no longer mixes the two", len(log), inline, sliceCalls)
	}
	if len(log) > 0 && time.Duration(sum) <= 0 {
		t.Fatal("no pass time recorded")
	}
}
