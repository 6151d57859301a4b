package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
)

// Log is the daemon's sequence-numbered tail log: every applied ingest
// batch is appended as a TTail frame after the snapshot it follows. On
// restart the daemon replays the log into the restored cluster; because
// application is strictly sequential, snapshot + replay is bit-identical
// to the uninterrupted process (the TestSnapshotRestoreIdentity
// contract). The file begins with the protocol header so a tail log is
// self-describing and version-checked like a connection.
type Log struct {
	f    *os.File
	path string
	buf  []byte
}

// OpenLog opens (creating if needed) the tail log at path for appending.
// A brand-new log gets the protocol header; an existing one has its
// header verified.
func OpenLog(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wire: open tail log: %w", err)
	}
	l := &Log{f: f, path: path}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wire: open tail log: %w", err)
	}
	if st.Size() == 0 {
		if err := WriteHeader(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("wire: init tail log: %w", err)
		}
	} else {
		if err := ReadHeader(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("wire: tail log %s: %w", path, err)
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, fmt.Errorf("wire: open tail log: %w", err)
	}
	return l, nil
}

// AppendBatch writes one TTail frame carrying the applied batch and
// hands it to the kernel. No fsync per frame: the log's durability
// contract is "at least everything before the last snapshot", and the
// snapshot path fsyncs; a torn final frame is tolerated by ReadTail.
func (l *Log) AppendBatch(seq uint64, body []byte) error {
	l.buf = AppendFrame(l.buf[:0], TTail, seq, body)
	if _, err := l.f.Write(l.buf); err != nil {
		return fmt.Errorf("wire: tail append: %w", err)
	}
	return nil
}

// Sync flushes the log to stable storage (used at drain).
func (l *Log) Sync() error { return l.f.Sync() }

// Truncate discards all frames — called under the daemon's apply lock
// when a snapshot cut makes the prefix redundant — and fsyncs so a crash
// after the snapshot commit cannot resurrect pre-snapshot frames.
func (l *Log) Truncate() error {
	if err := l.f.Truncate(int64(HeaderSize)); err != nil {
		return fmt.Errorf("wire: tail truncate: %w", err)
	}
	if _, err := l.f.Seek(int64(HeaderSize), io.SeekStart); err != nil {
		return fmt.Errorf("wire: tail truncate: %w", err)
	}
	return l.f.Sync()
}

// Close closes the underlying file.
func (l *Log) Close() error { return l.f.Close() }

// TailFrame is one replayable entry read back from a tail log.
type TailFrame struct {
	Seq  uint64
	Body []byte // TTail body, parse with ParseTailBody
}

// ReadTail reads every complete TTail frame from the log at path, in
// order. A truncated or torn final frame (crash mid-append) is tolerated
// and ends the replay; corruption anywhere else is surfaced. A missing
// file is an empty tail.
func ReadTail(path string) ([]TailFrame, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("wire: read tail log: %w", err)
	}
	if len(data) < HeaderSize {
		if len(data) == 0 {
			return nil, nil
		}
		return nil, fmt.Errorf("wire: tail log %s: %w: short header", path, ErrBadHeader)
	}
	if err := ReadHeader(bytes.NewReader(data[:HeaderSize])); err != nil {
		return nil, fmt.Errorf("wire: tail log %s: %w", path, err)
	}
	data = data[HeaderSize:]
	var out []TailFrame
	for len(data) > 0 {
		f, n, err := DecodeFrame(data)
		if err != nil {
			if errors.Is(err, io.ErrUnexpectedEOF) {
				// Torn final frame: everything before it is good.
				return out, nil
			}
			return nil, fmt.Errorf("wire: tail log %s frame %d: %w", path, len(out), err)
		}
		if f.Type != TTail {
			return nil, fmt.Errorf("wire: tail log %s frame %d: %w: type %v", path, len(out), ErrCorruptFrame, f.Type)
		}
		body := make([]byte, len(f.Body))
		copy(body, f.Body)
		out = append(out, TailFrame{Seq: f.Seq, Body: body})
		data = data[n:]
	}
	return out, nil
}
