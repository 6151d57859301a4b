package hbnd

import (
	"errors"
	"sync"
	"testing"
	"time"

	"hbn/internal/wire"
)

// Live handoff: a primary that served traffic hands its state to a warm
// standby over the wire; the promoted standby's serving state is
// bit-identical to an uninterrupted in-process cluster fed the same
// batches, and stays identical through a post-handoff suffix (epoch
// passes included). The retired primary refuses further serving.
func TestHandoffBitIdentity(t *testing.T) {
	primary := startDaemon(t, testConfig(t))
	defer primary.Close()
	standbyCfg := testConfig(t)
	standbyCfg.Standby = true
	standby := startDaemon(t, standbyCfg)
	defer standby.Close()
	ref := refCluster(t)
	defer ref.Close()

	trace := testTrace(6000)
	cl := dialTest(t, primary.Addr())
	ingestBoth(t, cl, ref, trace[:2500], 128)

	hcl, err := wire.Dial(primary.Addr(), wire.ClientOptions{Seed: 5, Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer hcl.Close()
	if err := hcl.Handoff(standby.Addr()); err != nil {
		t.Fatal(err)
	}

	// The promoted standby equals the uninterrupted reference exactly.
	compareClusters(t, "after handoff", standby.Cluster(), ref)

	// The retired primary refuses serving.
	if _, err := cl.Ingest(trace[:1], 0); err == nil {
		t.Fatal("retired primary accepted a batch")
	}

	// Serving continues on the standby, bit-identical through the suffix.
	scl := dialTest(t, standby.Addr())
	ingestBoth(t, scl, ref, trace[2500:], 128)
	compareClusters(t, "after suffix on standby", standby.Cluster(), ref)

	// The standby journaled its received state durably: a restart of the
	// standby daemon reproduces it (crash-consistency of the handoff).
	if err := standby.Close(); err != nil {
		t.Fatal(err)
	}
	standbyCfg.Standby = false
	s2 := startDaemon(t, standbyCfg)
	defer s2.Close()
	compareClusters(t, "standby restarted", s2.Cluster(), ref)
}

// Live handoff in the middle of an epoch pass spread over several
// batches: the cut records the pass in flight, and the promoted standby
// adopts it on the batch the uninterrupted reference does.
func TestHandoffMidPass(t *testing.T) {
	primaryCfg := testConfig(t)
	primary := startDaemon(t, primaryCfg)
	defer primary.Close()
	standbyCfg := testConfig(t)
	standbyCfg.Standby = true
	standby := startDaemon(t, standbyCfg)
	defer standby.Close()
	ref := refCluster(t)
	defer ref.Close()

	trace := testTrace(3000)
	cl := dialTest(t, primary.Addr())
	// The pass folded at 1800 requests starts on the 57th batch (1824).
	ingestBoth(t, cl, ref, trace[:1856], 32)

	hcl, err := wire.Dial(primary.Addr(), wire.ClientOptions{Seed: 5, Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer hcl.Close()
	if err := hcl.Handoff(standby.Addr()); err != nil {
		t.Fatal(err)
	}
	left := pendingCalls(t, primaryCfg.SnapshotPath)
	if left == 0 {
		t.Fatal("the handoff cut records no pass in flight")
	}
	compareClusters(t, "after handoff", standby.Cluster(), ref)

	scl := dialTest(t, standby.Addr())
	epochs := ref.Stats().Epochs
	for i, lo := 1, 1856; lo < len(trace); i, lo = i+1, lo+32 {
		ingestBoth(t, scl, ref, trace[lo:min(lo+32, len(trace))], 32)
		got, want := standby.Cluster().Stats().Epochs, ref.Stats().Epochs
		if got != want {
			t.Fatalf("batch %d after the handoff: standby at %d passes, reference at %d", i, got, want)
		}
		if i <= left && (got > epochs) != (i == left) {
			t.Fatalf("batch %d after the handoff: %d passes adopted since, want the pass in flight adopted on batch %d", i, got-epochs, left)
		}
	}
	compareClusters(t, "after suffix on standby", standby.Cluster(), ref)
}

// Handoff with a non-trivial tail: traffic lands between the cut and the
// drain (while the image streams), so the standby replays real tail
// frames — the ledger fingerprint still verifies and identity holds.
func TestHandoffWithConcurrentIngest(t *testing.T) {
	primary := startDaemon(t, testConfig(t))
	defer primary.Close()
	standbyCfg := testConfig(t)
	standbyCfg.Standby = true
	standby := startDaemon(t, standbyCfg)
	defer standby.Close()

	trace := testTrace(8000)
	cl := dialTest(t, primary.Addr())
	var prefixEv int64
	for lo := 0; lo < 3000; lo += 128 {
		batch := trace[lo : lo+128]
		if _, err := cl.Ingest(batch, 0); err != nil {
			t.Fatal(err)
		}
		prefixEv += int64(len(batch))
	}

	// Background traffic racing the handoff: batches may be accepted
	// (before the drain) or refused (draining/retired); every accepted
	// batch must survive into the standby.
	var (
		wg          sync.WaitGroup
		acceptedEv  int64
		acceptedErr error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		bcl, err := wire.Dial(primary.Addr(), wire.ClientOptions{Seed: 9, MaxRetries: -1})
		if err != nil {
			acceptedErr = err
			return
		}
		defer bcl.Close()
		for lo := 3000; lo < 6000; lo += 64 {
			_, err := bcl.Ingest(trace[lo:lo+64], 0)
			if err == nil {
				acceptedEv += 64
				continue
			}
			if errors.Is(err, wire.ErrOverloaded) || errors.Is(err, wire.ErrBusy) || errors.Is(err, wire.ErrStandby) {
				continue // shed or refused mid-handoff: never applied
			}
			return // connection torn down by drain — also fine
		}
	}()

	hcl, err := wire.Dial(primary.Addr(), wire.ClientOptions{Seed: 6, Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer hcl.Close()
	if err := hcl.Handoff(standby.Addr()); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if acceptedErr != nil {
		t.Fatal(acceptedErr)
	}

	// Every batch the primary acknowledged — including those that raced
	// the handoff — is present in the promoted standby.
	want := prefixEv + acceptedEv
	st := standby.Cluster().Stats()
	if st.Requests != want {
		t.Fatalf("standby serves %d requests, want %d (%d prefix + %d raced)", st.Requests, want, prefixEv, acceptedEv)
	}
	var slSum int64
	for _, v := range standby.Cluster().ServiceLoad() {
		slSum += v
	}
	if slSum+st.DroppedServiceLoad != st.ServiceCost {
		t.Fatalf("ledger on standby: ΣServiceLoad %d + dropped %d != ServiceCost %d",
			slSum, st.DroppedServiceLoad, st.ServiceCost)
	}
}

// A handoff to a dead address fails cleanly and the primary keeps
// serving (the cut and image read happen before any drain).
func TestHandoffToDeadStandbyKeepsServing(t *testing.T) {
	d := startDaemon(t, testConfig(t))
	defer d.Close()
	cl := dialTest(t, d.Addr())
	if _, err := cl.Ingest(testTrace(256), 0); err != nil {
		t.Fatal(err)
	}
	if err := cl.Handoff("127.0.0.1:1"); err == nil {
		t.Fatal("handoff to dead address must fail")
	}
	// Still serving: the drain only begins after the standby accepted the
	// image stream.
	if _, err := cl.Ingest(testTrace(64), 0); err != nil {
		t.Fatalf("primary stopped serving after failed handoff: %v", err)
	}
}
