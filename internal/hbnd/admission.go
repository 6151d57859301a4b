package hbnd

import (
	"errors"
	"fmt"
	"net"
	"time"

	"hbn/internal/obs"
	"hbn/internal/serve"
	"hbn/internal/wire"
)

// ingest admits one parsed batch or sheds it, then applies it on the
// calling connection goroutine under applyMu. A batch that finds applyMu
// free takes it without entering the queue; one that must wait is
// counted in waiting until it holds the lock, and shed if QueueCap
// batches already wait. The read side of drainMu is held from the
// draining check until the batch is applied or expired, so stopAdmission
// returns only after every admitted batch is done.
func (d *Daemon) ingest(events []serve.Request, budget time.Duration) (cost int64, expired bool, err error) {
	d.drainMu.RLock()
	defer d.drainMu.RUnlock()
	if d.draining.Load() {
		return 0, false, &wire.RemoteError{Code: wire.CodeBusy, Msg: "draining"}
	}
	admitted := time.Now()
	locked := admitted
	if !d.applyMu.TryLock() {
		if err := d.admit(len(events)); err != nil {
			return 0, false, err
		}
		d.applyMu.Lock()
		d.waiting.Add(-1)
		locked = time.Now()
	}
	defer d.applyMu.Unlock()
	return d.applyLocked(events, admitted, locked, budget)
}

// admit counts one batch into the admission queue or sheds it. Shedding
// is a non-blocking decision: QueueCap batches already waiting for
// applyMu means the daemon is behind by that many applies, and accepting
// more would turn bounded admission latency into unbounded queue growth —
// the daemon's core overload stance is that the client hears "no, retry
// in ~T" instead.
func (d *Daemon) admit(events int) error {
	n := d.waiting.Add(1)
	if n <= int64(d.cfg.QueueCap) {
		for {
			hw := d.queueHighWater.Load()
			if n <= hw || d.queueHighWater.CompareAndSwap(hw, n) {
				return nil
			}
		}
	}
	n = d.waiting.Add(-1)
	d.shedBatches.Add(1)
	d.shedEvents.Add(int64(events))
	// Flight-record the burst, coalesced: only the first shed of each
	// ~10ms window lands an event (a losing CAS means a concurrent
	// shedder already recorded this window).
	if o := d.obsReg(); o != nil {
		now := time.Now().UnixNano()
		if last := d.lastShedNs.Load(); now-last > 10*int64(time.Millisecond) &&
			d.lastShedNs.CompareAndSwap(last, now) {
			o.Flight.RecordAt(now, obs.EvShed, -1, n, int64(d.cfg.QueueCap), d.shedBatches.Load())
		}
	}
	return &wire.OverloadedError{
		RetryAfter: d.retryAfter(),
		QueueLen:   int(n),
		QueueCap:   d.cfg.QueueCap,
	}
}

// obsReg returns the serving cluster's telemetry registry, or nil while
// in standby (no cluster yet) or with telemetry disabled.
func (d *Daemon) obsReg() *obs.Registry {
	if cl := d.cl; cl != nil {
		return cl.Obs()
	}
	return nil
}

// retryAfter estimates when a shed client should come back: the EWMA
// apply time of recent batches times the queue depth — roughly "when the
// backlog you were rejected behind has cleared". Zero until the first
// batch is measured (the client falls back to its own backoff).
func (d *Daemon) retryAfter() time.Duration {
	per := d.ewmaApplyNs.Load()
	return time.Duration(per*d.waiting.Load()) * time.Nanosecond
}

// SetApplyDelay injects an artificial per-batch apply delay — the
// fault-injection seam (chaos harness, overload tests) that pins the
// daemon's sustainable throughput to a known value so offered load can
// provably exceed it on hardware of any speed. Zero disables.
func (d *Daemon) SetApplyDelay(delay time.Duration) {
	d.applyDelayNs.Store(int64(delay))
}

// applyLocked applies one admitted batch; the caller holds applyMu,
// which it took at locked after admitting the batch at admitted. It runs
// the deadline gate, the cluster call, the tail append and the counters.
// Expired batches are dropped here — after admission, before
// Cluster.Ingest — so a backlog of dead work costs queue slots but never
// serving capacity. The batch is ingested in place: its events are not
// touched again until the handler returns.
func (d *Daemon) applyLocked(events []serve.Request, admitted, locked time.Time, budget time.Duration) (int64, bool, error) {
	wait := locked.Sub(admitted)
	o := d.obsReg()
	if o != nil {
		o.AdmitWait.Observe(wait.Nanoseconds())
	}
	if budget > 0 && wait > budget {
		d.expiredBatches.Add(1)
		d.expiredEvents.Add(int64(len(events)))
		return 0, true, nil
	}
	if delay := d.applyDelayNs.Load(); delay > 0 {
		time.Sleep(time.Duration(delay))
	}
	cost, err := d.cl.Ingest(events)
	if err != nil {
		return 0, false, err
	}
	elapsed := time.Since(locked).Nanoseconds()
	if old := d.ewmaApplyNs.Load(); old == 0 {
		d.ewmaApplyNs.Store(elapsed)
	} else {
		d.ewmaApplyNs.Store(old - old/8 + elapsed/8)
	}
	// The EWMA's elapsed doubles as the apply-histogram sample — the
	// telemetry costs no extra clock read on the apply path.
	if o != nil {
		o.Apply.Observe(elapsed)
	}
	seq := d.appliedSeq.Add(1)
	d.tailBuf = wire.AppendEvents(d.tailBuf[:0], events)
	if err := d.tail.AppendBatch(seq, d.tailBuf); err != nil {
		// The batch IS applied; a tail write failure degrades restart
		// durability, not serving correctness. Log it, keep serving.
		d.cfg.Logf("hbnd: tail append seq %d: %v", seq, err)
	}
	d.acceptedBatches.Add(1)
	d.acceptedEvents.Add(int64(len(events)))
	return cost, false, nil
}

// handleConn speaks the protocol on one connection: handshake, then a
// strict request/reply loop. Hostile input anywhere closes the
// connection; per-request failures are typed reply frames.
func (d *Daemon) handleConn(conn net.Conn) {
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(d.cfg.IdleTimeout))
	if err := wire.ReadHeader(conn); err != nil {
		return
	}
	if err := wire.WriteHeader(conn); err != nil {
		return
	}
	var rbuf, wbuf, body []byte
	var events []serve.Request
	for {
		// Per-frame read deadline: a slow-loris client trickling header
		// bytes ties up this goroutine, not the daemon — and is cut off.
		conn.SetDeadline(time.Now().Add(d.cfg.IdleTimeout))
		f, buf, err := wire.ReadFrame(conn, rbuf)
		if err != nil {
			return // EOF, timeout, or corruption: the connection is done
		}
		rbuf = buf

		var rtyp wire.Type
		switch f.Type {
		case wire.TIngest:
			rtyp, body, events = d.handleIngest(f, body, events)
		case wire.TQuery:
			rtyp, body = d.handleQuery(f, body)
		case wire.TStats:
			rtyp, body = wire.TStatsOK, wire.AppendStats(body[:0], d.Stats())
		case wire.TMsgStats:
			rtyp, body = wire.TMsgStatsOK, wire.AppendMsgStats(body[:0], d.MsgStats())
		case wire.TSnapshot:
			rtyp, body = d.handleSnapshot(body)
		case wire.TReconfig:
			rtyp, body = d.handleReconfig(f, body)
		case wire.THandoff:
			rtyp, body = d.handleHandoffCmd(f, body)
		case wire.THandoffBegin:
			// This connection is a primary streaming its state into us.
			if !d.standby.Load() {
				rtyp, body = errReply(body, wire.CodeBadRequest, "not a standby")
				break
			}
			d.receiveHandoff(conn, f, &rbuf, &wbuf)
			return
		default:
			rtyp, body = errReply(body, wire.CodeBadRequest, "unexpected frame "+f.Type.String())
		}

		conn.SetDeadline(time.Now().Add(d.cfg.IdleTimeout))
		if wbuf, err = wire.WriteFrame(conn, rtyp, f.Seq, body, wbuf); err != nil {
			return
		}
	}
}

func errReply(body []byte, code byte, msg string) (wire.Type, []byte) {
	return wire.TError, wire.AppendError(body[:0], code, msg)
}

// errorReply maps an internal error onto the right reply frame.
func errorReply(body []byte, err error) (wire.Type, []byte) {
	var oe *wire.OverloadedError
	if errors.As(err, &oe) {
		return wire.TOverloaded, wire.AppendOverloaded(body[:0], oe.RetryAfter, oe.QueueLen, oe.QueueCap)
	}
	var re *wire.RemoteError
	if errors.As(err, &re) {
		return wire.TError, wire.AppendError(body[:0], re.Code, re.Msg)
	}
	switch {
	case errors.Is(err, serve.ErrReconfigInProgress):
		return errReply(body, wire.CodeBusy, err.Error())
	case errors.Is(err, serve.ErrClosed):
		return errReply(body, wire.CodeBusy, err.Error())
	default:
		return errReply(body, wire.CodeInternal, err.Error())
	}
}

func (d *Daemon) handleIngest(f wire.Frame, body []byte, events []serve.Request) (wire.Type, []byte, []serve.Request) {
	if d.standby.Load() {
		t, b := errReply(body, wire.CodeStandby, "standby: not serving")
		return t, b, events
	}
	if d.retired.Load() {
		t, b := errReply(body, wire.CodeStandby, "retired: state handed off")
		return t, b, events
	}
	budget, evs, err := wire.ParseIngestBody(f.Body, events)
	if err != nil {
		t, b := errReply(body, wire.CodeBadRequest, err.Error())
		return t, b, events
	}
	events = evs
	cost, expired, err := d.ingest(events, budget)
	switch {
	case err != nil:
		typ, b := errorReply(body, err)
		return typ, b, events
	case expired:
		return wire.TExpired, body[:0], events
	default:
		return wire.TIngestOK, wire.AppendCost(body[:0], cost), events
	}
}

func (d *Daemon) handleQuery(f wire.Frame, body []byte) (wire.Type, []byte) {
	if d.standby.Load() {
		return errReply(body, wire.CodeStandby, "standby: not serving")
	}
	x, err := wire.ParseQuery(f.Body)
	if err != nil {
		return errReply(body, wire.CodeBadRequest, err.Error())
	}
	// The range is the cluster's own: a restored cluster serves the
	// object count of its image, not Config.NumObjects.
	if n := d.cl.NumObjects(); x >= n {
		return errReply(body, wire.CodeBadRequest, fmt.Sprintf("object %d out of range [0,%d)", x, n))
	}
	// An object with no copy yet has an empty node list.
	return wire.TQueryOK, wire.AppendNodes(body[:0], d.cl.Copies(x))
}

func (d *Daemon) handleSnapshot(body []byte) (wire.Type, []byte) {
	if d.standby.Load() {
		return errReply(body, wire.CodeStandby, "standby: nothing to snapshot")
	}
	res, err := d.snapshotNow()
	if err != nil {
		return errorReply(body, err)
	}
	return wire.TSnapshotOK, wire.AppendSnapshotResult(body[:0], res)
}

func (d *Daemon) handleReconfig(f wire.Frame, body []byte) (wire.Type, []byte) {
	if d.standby.Load() {
		return errReply(body, wire.CodeStandby, "standby: not serving")
	}
	req, err := wire.ParseReconfig(f.Body)
	if err != nil {
		return errReply(body, wire.CodeBadRequest, err.Error())
	}
	res, err := d.reconfigure(req)
	if err != nil {
		return errorReply(body, err)
	}
	return wire.TReconfigOK, wire.AppendReconfigResult(body[:0], res)
}

// stopAdmission sets draining under drainMu's write side, which every
// admitted batch holds the read side of until it is applied or expired:
// it returns once the admitted work is done, and no batch is admitted
// after it. It reports whether draining was already set.
func (d *Daemon) stopAdmission() (already bool) {
	d.drainMu.Lock()
	defer d.drainMu.Unlock()
	return d.draining.Swap(true)
}
