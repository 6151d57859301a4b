package hbnd

import (
	"fmt"
	"net"
	"os"
	"time"

	"hbn/internal/obs"
	"hbn/internal/serve"
	"hbn/internal/snapshot"
	"hbn/internal/wire"
)

// maxHandoffImage caps the snapshot image a standby will buffer from the
// wire (hostile or confused primaries must not OOM it).
const maxHandoffImage = 1 << 30

// handleHandoffCmd implements THandoff on the primary: hand our state to
// the standby at the address in the body, then retire. The protocol is
// phased to keep the serving gap to the tail length:
//
//  1. Cut: take applyMu, snapshot to our own path, truncate the tail.
//     BaseSeq is the apply sequence at the cut. Serving resumes.
//  2. Stream: send the snapshot image (as committed on disk) in chunks
//     while we keep serving — the expensive transfer costs no downtime.
//  3. Drain: shed new work, wait out the admitted batches. From here we
//     serve nothing.
//  4. Tail: stream every batch applied since the cut, in apply order,
//     then a commit carrying the final sequence and the cluster ledger
//     fingerprint (Requests, ServiceCost) the standby must reproduce.
//  5. The standby verifies and acks; we retire.
func (d *Daemon) handleHandoffCmd(f wire.Frame, body []byte) (wire.Type, []byte) {
	if d.standby.Load() {
		return errReply(body, wire.CodeStandby, "standby: nothing to hand off")
	}
	if d.retired.Load() {
		return errReply(body, wire.CodeStandby, "retired: state already handed off")
	}
	addr, err := wire.ParseString(f.Body)
	if err != nil {
		return errReply(body, wire.CodeBadRequest, err.Error())
	}
	if err := d.handoffTo(addr); err != nil {
		return errorReply(body, err)
	}
	return wire.THandoffOK, body[:0]
}

func (d *Daemon) handoffTo(addr string) error {
	// Each phase lands in the Handoff histogram and the flight recorder:
	// the cut (serving stalled), the stream (serving live), and the
	// drain-through-commit gap (serving stopped for good).
	span := func(t0 time.Time, phase, val int64) {
		if o := d.obsReg(); o != nil {
			o.Handoff.ObserveSince(t0)
			o.Flight.Record(obs.EvHandoff, -1, phase, val, time.Since(t0).Nanoseconds())
		}
	}

	// Phase 1: consistent cut at a batch boundary.
	tCut := time.Now()
	d.applyMu.Lock()
	_, err := d.cl.SnapshotWait(d.cfg.SnapshotPath, 10, 5*time.Millisecond)
	if err == nil {
		err = d.tail.Truncate()
	}
	baseSeq := d.appliedSeq.Load()
	d.applyMu.Unlock()
	if err != nil {
		return fmt.Errorf("handoff cut: %w", err)
	}
	span(tCut, obs.PhaseBegin, int64(baseSeq))
	image, err := os.ReadFile(d.cfg.SnapshotPath)
	if err != nil {
		return fmt.Errorf("handoff cut: %w", err)
	}

	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return fmt.Errorf("handoff dial: %w", err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(2 * time.Minute))
	if err := wire.WriteHeader(conn); err != nil {
		return fmt.Errorf("handoff handshake: %w", err)
	}
	if err := wire.ReadHeader(conn); err != nil {
		return fmt.Errorf("handoff handshake: %w", err)
	}

	// Phase 2: stream the image while still serving.
	tStream := time.Now()
	numChunks := (len(image) + wire.SnapChunkSize - 1) / wire.SnapChunkSize
	var wbuf []byte
	hb := &wire.HandoffBegin{BaseSeq: baseSeq, ImageLen: int64(len(image)), NumChunks: int64(numChunks)}
	if wbuf, err = wire.WriteFrame(conn, wire.THandoffBegin, 1, wire.AppendHandoffBegin(nil, hb), wbuf); err != nil {
		return fmt.Errorf("handoff begin: %w", err)
	}
	for i := 0; i < numChunks; i++ {
		lo, hi := i*wire.SnapChunkSize, (i+1)*wire.SnapChunkSize
		if hi > len(image) {
			hi = len(image)
		}
		if wbuf, err = wire.WriteFrame(conn, wire.TSnapChunk, uint64(i+1), image[lo:hi], wbuf); err != nil {
			return fmt.Errorf("handoff chunk %d: %w", i, err)
		}
	}

	span(tStream, obs.PhaseShard, int64(numChunks))

	// Phase 3: drain. After this every admitted batch is applied or
	// expired and none is admitted — appliedSeq and the tail log are final.
	tDrain := time.Now()
	d.stopAdmission()

	// Phase 4: stream the tail in apply order and commit.
	if err := d.tail.Sync(); err != nil {
		return fmt.Errorf("handoff tail: %w", err)
	}
	frames, err := wire.ReadTail(d.cfg.TailPath)
	if err != nil {
		return fmt.Errorf("handoff tail: %w", err)
	}
	for _, tf := range frames {
		if wbuf, err = wire.WriteFrame(conn, wire.TTail, tf.Seq, tf.Body, wbuf); err != nil {
			return fmt.Errorf("handoff tail seq %d: %w", tf.Seq, err)
		}
	}
	st := d.cl.Stats()
	hc := &wire.HandoffCommit{
		FinalSeq:    d.appliedSeq.Load(),
		Requests:    st.Requests,
		ServiceCost: st.ServiceCost,
	}
	if _, err = wire.WriteFrame(conn, wire.THandoffCommit, hc.FinalSeq, wire.AppendHandoffCommit(nil, hc), wbuf); err != nil {
		return fmt.Errorf("handoff commit: %w", err)
	}

	// Phase 5: the standby's ack means it reproduced our exact state.
	rf, _, err := wire.ReadFrame(conn, nil)
	if err != nil {
		return fmt.Errorf("handoff ack: %w", err)
	}
	if rf.Type != wire.THandoffOK {
		if rf.Type == wire.TError {
			if re, perr := wire.ParseError(rf.Body); perr == nil {
				return fmt.Errorf("handoff rejected: %w", re)
			}
		}
		return fmt.Errorf("handoff: unexpected %v reply", rf.Type)
	}
	span(tDrain, obs.PhaseCommit, int64(hc.FinalSeq))
	d.retired.Store(true)
	d.cfg.Logf("hbnd: handed off through seq %d to %s", hc.FinalSeq, addr)
	return nil
}

// receiveHandoff is the standby side: the connection has delivered a
// THandoffBegin frame (in begin); consume the image chunks and the tail,
// rebuild the cluster, verify the fingerprint, promote, ack. Any failure
// is answered with a typed error frame and the daemon stays standby.
func (d *Daemon) receiveHandoff(conn net.Conn, begin wire.Frame, rbuf, wbuf *[]byte) {
	reply := func(typ wire.Type, body []byte) {
		conn.SetDeadline(time.Now().Add(d.cfg.IdleTimeout))
		*wbuf, _ = wire.WriteFrame(conn, typ, begin.Seq, body, *wbuf)
	}
	fail := func(format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		d.cfg.Logf("hbnd: handoff receive: %s", msg)
		t, b := errReply(nil, wire.CodeInternal, msg)
		reply(t, b)
	}

	hb, err := wire.ParseHandoffBegin(begin.Body)
	if err != nil {
		fail("begin: %v", err)
		return
	}
	if hb.ImageLen <= 0 || hb.ImageLen > maxHandoffImage {
		fail("image length %d out of range", hb.ImageLen)
		return
	}
	image := make([]byte, 0, hb.ImageLen)
	for i := int64(0); i < hb.NumChunks; i++ {
		conn.SetDeadline(time.Now().Add(2 * time.Minute))
		f, buf, err := wire.ReadFrame(conn, *rbuf)
		if err != nil {
			d.cfg.Logf("hbnd: handoff receive: chunk %d: %v", i, err)
			return
		}
		*rbuf = buf
		if f.Type != wire.TSnapChunk {
			fail("chunk %d: unexpected %v", i, f.Type)
			return
		}
		if int64(len(image)+len(f.Body)) > hb.ImageLen {
			fail("image exceeds declared %d bytes", hb.ImageLen)
			return
		}
		image = append(image, f.Body...)
	}
	if int64(len(image)) != hb.ImageLen {
		fail("image is %d bytes, declared %d", len(image), hb.ImageLen)
		return
	}

	// Commit the image as our own durable snapshot generation, then
	// restore from it exactly as a restart would — one recovery path,
	// not two.
	removeStaleState(d.cfg.SnapshotPath, d.cfg.TailPath)
	if err := snapshot.WriteFile(d.cfg.SnapshotPath, image, snapshot.SaveOptions{}); err != nil {
		fail("commit image: %v", err)
		return
	}
	cl, _, err := serve.Restore(d.cfg.SnapshotPath, serve.RestoreOptions{Parallelism: d.cfg.Parallelism})
	if err != nil {
		fail("restore image: %v", err)
		return
	}
	tail, err := wire.OpenLog(d.cfg.TailPath)
	if err != nil {
		cl.Close()
		fail("open tail: %v", err)
		return
	}

	// Replay the streamed tail in apply order, journaling each frame to
	// our own tail log so a crash mid-handoff restarts consistently.
	seq := hb.BaseSeq
	var events []serve.Request
	var commit *wire.HandoffCommit
	for commit == nil {
		conn.SetDeadline(time.Now().Add(2 * time.Minute))
		f, buf, err := wire.ReadFrame(conn, *rbuf)
		if err != nil {
			d.cfg.Logf("hbnd: handoff receive: tail: %v", err)
			cl.Close()
			tail.Close()
			return
		}
		*rbuf = buf
		switch f.Type {
		case wire.TTail:
			if f.Seq != seq+1 {
				fail("tail gap: frame seq %d after %d", f.Seq, seq)
				cl.Close()
				tail.Close()
				return
			}
			if events, err = wire.ParseTailBody(f.Body, events); err != nil {
				fail("tail seq %d: %v", f.Seq, err)
				cl.Close()
				tail.Close()
				return
			}
			if _, err := cl.Ingest(events); err != nil {
				fail("tail seq %d: %v", f.Seq, err)
				cl.Close()
				tail.Close()
				return
			}
			if err := tail.AppendBatch(f.Seq, f.Body); err != nil {
				fail("tail journal seq %d: %v", f.Seq, err)
				cl.Close()
				tail.Close()
				return
			}
			seq = f.Seq
		case wire.THandoffCommit:
			if commit, err = wire.ParseHandoffCommit(f.Body); err != nil {
				fail("commit: %v", err)
				cl.Close()
				tail.Close()
				return
			}
		default:
			fail("tail: unexpected %v", f.Type)
			cl.Close()
			tail.Close()
			return
		}
	}

	// Verify the fingerprint: same final sequence, same cluster ledger.
	st := cl.Stats()
	if seq != commit.FinalSeq || st.Requests != commit.Requests || st.ServiceCost != commit.ServiceCost {
		fail("fingerprint mismatch: seq %d/%d, requests %d/%d, cost %d/%d",
			seq, commit.FinalSeq, st.Requests, commit.Requests, st.ServiceCost, commit.ServiceCost)
		cl.Close()
		tail.Close()
		return
	}
	if err := tail.Sync(); err != nil {
		fail("tail sync: %v", err)
		cl.Close()
		tail.Close()
		return
	}

	// Promote: publish the cluster, then clear the standby flag (the
	// atomic store orders the publication for every handler that
	// observes standby == false).
	d.cl = cl
	d.tail = tail
	d.appliedSeq.Store(seq)
	d.standby.Store(false)
	d.cfg.Logf("hbnd: promoted at seq %d (%d requests)", seq, st.Requests)
	reply(wire.THandoffOK, nil)
}
