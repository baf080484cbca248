package trace

import (
	"bufio"
	"fmt"
	"io"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
)

// This file adds chunked streaming over the CTRC v2 codec (codec.go),
// so large machines (1024 nodes) can capture and evaluate traces
// without ever materializing the record slice: StreamWriter appends
// records to a file as they are observed, rewriting the header with
// the final counts and computing the footer checksum in a sequential
// re-read at Close; StreamReader hands records out in bounded windows
// and is the only decoder (Read drains one). Files written by
// StreamWriter and Write are byte-identical for the same records, so
// the trace cache, Read, and Verify all work on either.

// streamBufSize is the encode/decode buffer: large enough to amortize
// syscalls, small enough to keep streaming memory bounded.
const streamBufSize = 64 * 1024

// StreamWriter writes a CTRC v2 trace incrementally to a seekable
// file. The header's iteration and record counts are unknown until the
// run ends, so Close rewrites the header with the final counts and then
// re-reads the records sequentially to compute the footer checksum —
// O(1) memory throughout.
type StreamWriter struct {
	f      io.ReadWriteSeeker
	bw     *bufio.Writer
	hdr    header
	closed bool
	err    error
	// rec is the per-record encode buffer. It lives on the struct
	// because a stack buffer passed to the bufio.Writer interface
	// escapes — one heap allocation per record, the single largest
	// allocation site of a 1024-node streamed capture.
	rec [recordSize]byte
}

// NewStreamWriter starts a CTRC v2 file for app over nodes on f
// (typically an *os.File positioned at offset 0).
func NewStreamWriter(f io.ReadWriteSeeker, app string, nodes int) (*StreamWriter, error) {
	w := &StreamWriter{f: f, bw: bufio.NewWriterSize(f, streamBufSize), hdr: header{app: app, nodes: nodes}}
	// A placeholder header (zero counts) reserves the space Close
	// rewrites.
	hdr, err := w.hdr.encode()
	if err != nil {
		return nil, err
	}
	if _, err := w.bw.Write(hdr); err != nil {
		return nil, err
	}
	return w, nil
}

// Append encodes one record. Errors are sticky: once a write fails,
// every subsequent Append and the final Close report it.
func (w *StreamWriter) Append(r Record) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		w.err = fmt.Errorf("trace: Append after Close")
		return w.err
	}
	putRecord(&w.rec, r)
	if _, err := w.bw.Write(w.rec[:]); err != nil {
		w.err = err
		return err
	}
	w.hdr.count++
	if it := uint32(r.Iter) + 1; r.Iter >= 0 && it > w.hdr.iters {
		w.hdr.iters = it
	}
	return nil
}

// Count returns how many records have been appended.
func (w *StreamWriter) Count() uint64 { return w.hdr.count }

// Close flushes the records, rewrites the header with the final
// iteration and record counts, computes the footer checksum in one
// sequential re-read, and appends the footer. The caller still owns f
// (and closes/syncs it).
func (w *StreamWriter) Close() error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return nil
	}
	w.closed = true
	fail := func(err error) error { w.err = err; return err }
	if err := w.bw.Flush(); err != nil {
		return fail(err)
	}
	hdr, err := w.hdr.encode()
	if err != nil {
		return fail(err)
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return fail(err)
	}
	// Checksum pass: the payload now on disk is exactly what Write
	// would have produced; the header is summed as it is rewritten, the
	// records streamed back from just past it.
	sum := newPayloadSum()
	if _, err := io.MultiWriter(w.f, sum).Write(hdr); err != nil {
		return fail(err)
	}
	records := int64(w.hdr.count * recordSize)
	if _, err := io.CopyN(sum, bufio.NewReaderSize(w.f, streamBufSize), records); err != nil {
		return fail(fmt.Errorf("trace: checksumming streamed payload: %w", err))
	}
	if _, err := w.f.Seek(int64(len(hdr))+records, io.SeekStart); err != nil {
		return fail(err)
	}
	foot := sum.footer()
	if _, err := w.f.Write(foot[:]); err != nil {
		return fail(err)
	}
	return nil
}

// StreamReader decodes a CTRC v2 trace in bounded windows. Records are
// validated as they are decoded; the footer's length and checksum are
// verified when the last record has been consumed, so a caller that
// drains the stream (Read does) gets the loud-corruption contract.
// Callers that must reject corruption before acting on any record (the
// trace cache) run Verify first — a cheap sequential pass.
type StreamReader struct {
	src  *bufio.Reader
	tee  io.Reader // src, with every byte consumed fed into sum
	sum  *payloadSum
	hdr  header
	left uint64
	idx  uint64
	done bool
}

// NewStreamReader parses the header. The reader takes over r; records
// come from Next.
func NewStreamReader(r io.Reader) (*StreamReader, error) {
	src := bufio.NewReaderSize(r, streamBufSize)
	sum := newPayloadSum()
	tee := io.TeeReader(src, sum)
	hdr, err := readHeader(tee)
	if err != nil {
		return nil, err
	}
	return &StreamReader{src: src, tee: tee, sum: sum, hdr: hdr, left: hdr.count}, nil
}

// App returns the workload name from the header.
func (s *StreamReader) App() string { return s.hdr.app }

// Nodes returns the node count from the header.
func (s *StreamReader) Nodes() int { return s.hdr.nodes }

// Iterations returns the application-iteration count from the header.
func (s *StreamReader) Iterations() int { return int(s.hdr.iters) }

// Remaining returns how many records have not yet been read.
func (s *StreamReader) Remaining() uint64 { return s.left }

// Next decodes up to len(buf) records into buf and returns how many it
// wrote. It returns (0, io.EOF) once every record has been consumed
// and the footer verified.
func (s *StreamReader) Next(buf []Record) (int, error) {
	if s.done {
		return 0, io.EOF
	}
	if len(buf) == 0 {
		return 0, fmt.Errorf("trace: StreamReader.Next with empty buffer")
	}
	want := uint64(len(buf))
	if want > s.left {
		want = s.left
	}
	var rec [recordSize]byte
	for i := uint64(0); i < want; i++ {
		if _, err := io.ReadFull(s.tee, rec[:]); err != nil {
			return int(i), fmt.Errorf("trace: reading record %d: %w", s.idx, err)
		}
		r, err := decodeRecord(&rec, s.idx, s.hdr.nodes, s.hdr.iters)
		if err != nil {
			return int(i), err
		}
		buf[i] = r
		s.idx++
	}
	s.left -= want
	if s.left == 0 {
		if err := s.checkFooter(); err != nil {
			return int(want), err
		}
		s.done = true
	}
	if want == 0 {
		return 0, io.EOF
	}
	return int(want), nil
}

// checkFooter verifies the trailing footer against what the payload
// pass consumed; the footer itself is read past the tee.
func (s *StreamReader) checkFooter() error { return s.sum.checkFooter(s.src) }

// Verify makes one sequential pass over a CTRC v2 stream, checking the
// header shape and the footer's length and checksum without decoding
// records. It is the cheap pre-flight the cache path runs before
// streaming a stored trace into an evaluation.
func Verify(r io.Reader) error {
	sr, err := NewStreamReader(r)
	if err != nil {
		return err
	}
	if _, err := io.CopyN(io.Discard, sr.tee, int64(sr.left*recordSize)); err != nil {
		return fmt.Errorf("trace: verifying payload: %w", err)
	}
	return sr.checkFooter()
}

// StreamRecorder captures a machine run straight to a StreamWriter,
// never materializing the record slice — the allocation-flat capture
// path for large node counts. It implements machine.Observer
// structurally, like Recorder. Observer hooks cannot return errors, so
// write failures are sticky and surfaced by Close.
type StreamRecorder struct {
	w                 *StreamWriter
	phasesPerIter     int
	currentPhase      int
	startupIterations int
	err               error
}

// NewStreamRecorder wraps a StreamWriter with Recorder's phase
// bookkeeping (see NewRecorder for the startup-exclusion semantics).
func NewStreamRecorder(w *StreamWriter, phasesPerIter, startupIterations int) *StreamRecorder {
	if phasesPerIter < 1 {
		phasesPerIter = 1
	}
	return &StreamRecorder{w: w, phasesPerIter: phasesPerIter, startupIterations: startupIterations}
}

func (r *StreamRecorder) iter() int { return r.currentPhase/r.phasesPerIter - r.startupIterations }

func (r *StreamRecorder) observe(node coherence.NodeID, side Side, msg coherence.Msg) {
	it := r.iter()
	if it < 0 || r.err != nil {
		return
	}
	r.err = r.w.Append(Record{
		Node:   node,
		Side:   side,
		Sender: msg.Src,
		Type:   msg.Type,
		Addr:   msg.Addr,
		Iter:   int32(it),
	})
}

// ObserveCache implements machine.Observer.
func (r *StreamRecorder) ObserveCache(node coherence.NodeID, msg coherence.Msg) {
	r.observe(node, CacheSide, msg)
}

// ObserveDirectory implements machine.Observer.
func (r *StreamRecorder) ObserveDirectory(node coherence.NodeID, msg coherence.Msg) {
	r.observe(node, DirectorySide, msg)
}

// EndIteration implements machine.Observer.
func (r *StreamRecorder) EndIteration(int) { r.currentPhase++ }

// Close finishes the underlying StreamWriter and reports the first
// error encountered anywhere in the capture.
func (r *StreamRecorder) Close() error {
	if r.err != nil {
		return r.err
	}
	return r.w.Close()
}
