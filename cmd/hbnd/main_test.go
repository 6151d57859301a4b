package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"hbn/internal/tree"
	"hbn/internal/wire"
	"hbn/internal/workload"
)

// runMainEnv makes the test binary run main() instead of its tests. The
// tests start their own binary with it set, so the daemon under test is
// the command itself in its own process, with real sockets and signals.
const runMainEnv = "HBND_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// The cold-start shape of every test daemon; requests come from the
// leaves of the tree it builds (hbnd's default bandwidths 4 and 8).
var (
	shape  = []string{"-switches", "3", "-procs", "3", "-objects", "128", "-epoch", "2000", "-queue", "8"}
	leaves = tree.SCICluster(3, 3, 4, 8).Leaves()
)

const (
	objects = 128
	batch   = 64
	waitFor = 30 * time.Second
)

// proc is one hbnd child process. One goroutine reads its stderr to the
// end, then waits for it: err holds Wait's result once exited is closed.
type proc struct {
	cmd     *exec.Cmd
	addr    string // wire listener
	metrics string // metrics listener, "" without -metrics
	exited  chan struct{}
	err     error

	mu  sync.Mutex
	log []string
}

// startHBND runs the test binary as hbnd with a wire listener on a free
// loopback port, the given snapshot path and extra flags, and returns
// once the daemon has logged its listen address (and, with -metrics, its
// metrics address). At cleanup a daemon still running is killed and
// waited for.
func startHBND(t *testing.T, snapshotPath string, extra ...string) *proc {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0", "-snapshot", snapshotPath}, extra...)
	p := &proc{cmd: exec.Command(os.Args[0], args...), exited: make(chan struct{})}
	// Under -race a child sleeps a second at exit for late reports by
	// default; its reports still reach stderr, and fail the exit status.
	p.cmd.Env = append(os.Environ(), runMainEnv+"=1",
		"GORACE="+strings.TrimSpace(os.Getenv("GORACE")+" atexit_sleep_ms=0"))
	stderr, err := p.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		p.cmd.Process.Kill()
		<-p.exited
	})
	addr, metrics := make(chan string, 1), make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			p.log = append(p.log, line)
			p.mu.Unlock()
			if _, a, ok := strings.Cut(line, "hbnd: listening on "); ok {
				addr <- a
			}
			if _, a, ok := strings.Cut(line, "hbnd: metrics on http://"); ok {
				a, _, _ = strings.Cut(a, "/")
				metrics <- a
			}
		}
		io.Copy(io.Discard, stderr)
		p.err = p.cmd.Wait()
		close(p.exited)
	}()
	wantMetrics := slices.Contains(extra, "-metrics")
	deadline := time.After(waitFor)
	for p.addr == "" || wantMetrics && p.metrics == "" {
		select {
		case p.addr = <-addr:
		case p.metrics = <-metrics:
		case <-p.exited:
			t.Fatalf("hbnd exited before listening (%v):\n%s", p.err, p.logText())
		case <-deadline:
			t.Fatalf("hbnd logged no listen address within %v:\n%s", waitFor, p.logText())
		}
	}
	return p
}

func (p *proc) logText() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.log, "\n")
}

// stop sends sig and waits for the process to exit.
func (p *proc) stop(t *testing.T, sig syscall.Signal) {
	t.Helper()
	if err := p.cmd.Process.Signal(sig); err != nil {
		t.Fatal(err)
	}
	select {
	case <-p.exited:
	case <-time.After(waitFor):
		t.Fatalf("hbnd still running %v after %v:\n%s", waitFor, sig, p.logText())
	}
}

func dial(t *testing.T, addr string, seed int64) *wire.Client {
	t.Helper()
	cl, err := wire.Dial(addr, wire.ClientOptions{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func stats(t *testing.T, addr string) *wire.DaemonStats {
	t.Helper()
	st, err := dial(t, addr, 1).Stats()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// fill draws a batch of uniform traffic, one write in ten.
func fill(rng *rand.Rand, b []workload.TraceEvent) {
	for i := range b {
		b[i] = workload.TraceEvent{
			Object: rng.Intn(objects),
			Node:   leaves[rng.Intn(len(leaves))],
			Write:  rng.Intn(10) == 0,
		}
	}
}

// ledger checks the daemon's books against what its clients saw: every
// request served was acknowledged (acked events at cost costSum), and
// ΣServiceLoad + DroppedServiceLoad == ServiceCost.
func ledger(t *testing.T, label string, st *wire.DaemonStats, acked, costSum int64) {
	t.Helper()
	if st.Requests != acked {
		t.Errorf("%s: daemon served %d events, clients saw %d acknowledged", label, st.Requests, acked)
	}
	if st.ServiceCost != costSum {
		t.Errorf("%s: daemon service cost %d != Σ acknowledged costs %d", label, st.ServiceCost, costSum)
	}
	if st.ServiceLoadSum+st.DroppedServiceLoad != st.ServiceCost {
		t.Errorf("%s: ledger open: ΣServiceLoad %d + dropped %d != ServiceCost %d",
			label, st.ServiceLoadSum, st.DroppedServiceLoad, st.ServiceCost)
	}
}

// get fetches url and returns its body, failing on a non-200 reply.
func get(t *testing.T, url string) string {
	t.Helper()
	hc := &http.Client{Timeout: waitFor, Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := hc.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	return string(body)
}

// The operational cycle with real processes, sockets and signals: serve
// 10,048 events from four connections with metrics and pprof up, check
// the ledger from outside and scrape /metrics, drain on SIGTERM (exit
// status 0), restart from the drain snapshot and find the same books.
func TestDrainRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.hbn")
	p := startHBND(t, path, append([]string{"-metrics", "127.0.0.1:0", "-pprof"}, shape...)...)

	const clients, batches = 4, 157
	var next, acked, costSum atomic.Int64
	var wg sync.WaitGroup
	for c := range clients {
		cl := dial(t, p.addr, int64(c)+1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			b := make([]workload.TraceEvent, batch)
			for next.Add(1) <= batches {
				fill(rng, b)
				cost, err := cl.Ingest(b, 0)
				switch {
				case err == nil:
					acked.Add(batch)
					costSum.Add(cost)
				case !errors.Is(err, wire.ErrOverloaded):
					t.Errorf("client %d: %v", c, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	st := stats(t, p.addr)
	ledger(t, "served", st, acked.Load(), costSum.Load())
	ms, err := dial(t, p.addr, 2).MsgStats()
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range ms.Hists {
		if h.Name == "apply" && h.Count != st.AcceptedBatches {
			t.Errorf("MsgStats apply histogram counts %d batches, daemon accepted %d", h.Count, st.AcceptedBatches)
		}
	}
	text := get(t, "http://"+p.metrics+"/metrics")
	for _, want := range []string{`hbn_shard_events_total{shard="0"}`, "hbn_ingest_batch_ns_count"} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics has no %s", want)
		}
	}
	get(t, "http://"+p.metrics+"/debug/pprof/")

	p.stop(t, syscall.SIGTERM)
	if p.err != nil {
		t.Fatalf("drain on SIGTERM: %v\n%s", p.err, p.logText())
	}
	r := startHBND(t, path, shape...)
	ledger(t, "restarted", stats(t, r.addr), acked.Load(), costSum.Load())
	r.stop(t, syscall.SIGTERM)
	if r.err != nil {
		t.Fatalf("restarted daemon's drain: %v\n%s", r.err, r.logText())
	}
}

// A daemon SIGKILLed under load loses no acknowledged batch. One client
// ingests 64-event batches and asks for a snapshot every 40; the daemon
// is killed once a seeded number of events, 2,000 to 22,000, has been
// acknowledged (the client's batch in flight at the kill is not), and
// the restarted daemon must hold at least every acknowledged event with
// its ledger closed. At least, not exactly: a kill between a snapshot's
// final rename and the tail truncate after it replays frames the image
// already holds (the hbnd package doc states the window).
func TestKillRestart(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			killAt := 2000 + rng.Int63n(20001)
			path := filepath.Join(t.TempDir(), "state.hbn")
			p := startHBND(t, path, shape...)
			cl := dial(t, p.addr, seed)

			var acked atomic.Int64
			reached, stopped := make(chan struct{}), make(chan error, 1)
			go func() {
				b := make([]workload.TraceEvent, batch)
				for i := 1; ; i++ {
					fill(rng, b)
					if _, err := cl.Ingest(b, 0); err != nil {
						stopped <- err
						return
					}
					if n := acked.Add(batch); n >= killAt && n-batch < killAt {
						close(reached)
					}
					if i%40 == 0 {
						if _, err := cl.Snapshot(); err != nil {
							stopped <- err
							return
						}
					}
				}
			}()
			select {
			case <-reached:
			case err := <-stopped:
				t.Fatalf("load stopped at %d acknowledged events before the kill: %v", acked.Load(), err)
			}
			p.stop(t, syscall.SIGKILL)
			<-stopped
			if ws, ok := p.cmd.ProcessState.Sys().(syscall.WaitStatus); !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
				t.Fatalf("hbnd was not killed: %v\n%s", p.err, p.logText())
			}

			r := startHBND(t, path, shape...)
			st := stats(t, r.addr)
			if st.Requests < acked.Load() {
				t.Errorf("restored %d requests, %d were acknowledged before the kill", st.Requests, acked.Load())
			}
			if st.ServiceLoadSum+st.DroppedServiceLoad != st.ServiceCost {
				t.Errorf("ledger open after the kill: ΣServiceLoad %d + dropped %d != ServiceCost %d",
					st.ServiceLoadSum, st.DroppedServiceLoad, st.ServiceCost)
			}
			t.Logf("killed at %d acknowledged events, restored %d requests", acked.Load(), st.Requests)
			r.stop(t, syscall.SIGTERM)
			if r.err != nil {
				t.Fatalf("restarted daemon's drain: %v\n%s", r.err, r.logText())
			}
		})
	}
}
