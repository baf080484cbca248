package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
)

// Binary trace format (CTRC v2):
//
//	magic "CTRC" | version u16 | nodes u16 | iterations u32 |
//	appLen u16 | reserved u32 | app bytes | count u64 | records... | footer
//
// Each record is 18 bytes little-endian: node i16, side u8, sender
// i16, type u8, addr u64, iter i32.
//
// The v2 footer is 16 bytes: magic "CTRE" | payload length u64 |
// CRC-32C u32, where the length and checksum cover every byte from the
// leading "CTRC" up to (excluding) the footer. A truncated file fails
// the footer read, a short or bit-flipped payload fails the length or
// checksum comparison — either way the load fails loudly instead of
// silently decoding a shorter (or corrupted) trace. The format is
// versioned so traces written by older builds also fail loudly instead
// of decoding garbage: v1 files (no footer) are rejected with a
// version-mismatch error telling the caller to regenerate.
//
// This file holds the one encoder and one decoder of each piece —
// header, record, footer — that Write, Read and the streaming
// writer/reader (stream.go) all share.

const (
	traceMagic = "CTRC"
	// Version is the current trace format version. It participates in
	// trace-cache content keys: bumping it invalidates every cached
	// trace, because older payload layouts must never be decoded by a
	// newer build.
	Version     = 2
	recordSize  = 18
	footerMagic = "CTRE"
	footerSize  = 16
	// maxRecords bounds the header's record count: a sanity check
	// against corrupt headers.
	maxRecords = 1 << 31
)

// crcTable is the Castagnoli polynomial table (hardware-accelerated on
// amd64/arm64), shared by every encoder and decoder.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// header is the CTRC v2 header: everything before the first record.
type header struct {
	app   string
	nodes int
	iters uint32
	count uint64
}

// encode returns the header bytes, rejecting fields the fixed-width
// layout cannot hold.
func (h header) encode() ([]byte, error) {
	if len(h.app) > 1<<16-1 {
		return nil, fmt.Errorf("trace: app name of %d bytes does not fit the header", len(h.app))
	}
	if h.nodes < 0 || h.nodes > 1<<16-1 {
		return nil, fmt.Errorf("trace: node count %d does not fit the header", h.nodes)
	}
	b := make([]byte, 0, 4+14+len(h.app)+8)
	b = append(b, traceMagic...)
	b = binary.LittleEndian.AppendUint16(b, Version)
	b = binary.LittleEndian.AppendUint16(b, uint16(h.nodes))
	b = binary.LittleEndian.AppendUint32(b, h.iters)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(h.app)))
	b = append(b, 0, 0, 0, 0) // reserved
	b = append(b, h.app...)
	return binary.LittleEndian.AppendUint64(b, h.count), nil
}

// readHeader decodes and checks a header: magic, version, and a
// plausible record count.
func readHeader(r io.Reader) (header, error) {
	var fixed [4 + 14]byte
	if _, err := io.ReadFull(r, fixed[:4]); err != nil {
		return header{}, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(fixed[:4]) != traceMagic {
		return header{}, fmt.Errorf("trace: bad magic %q", fixed[:4])
	}
	hdr := fixed[4:]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return header{}, fmt.Errorf("trace: reading header: %w", err)
	}
	if v := binary.LittleEndian.Uint16(hdr[0:]); v != Version {
		return header{}, fmt.Errorf("trace: unsupported version %d (want %d); regenerate the trace with this build", v, Version)
	}
	h := header{
		nodes: int(binary.LittleEndian.Uint16(hdr[2:])),
		iters: binary.LittleEndian.Uint32(hdr[4:]),
	}
	app := make([]byte, binary.LittleEndian.Uint16(hdr[8:]))
	if _, err := io.ReadFull(r, app); err != nil {
		return header{}, fmt.Errorf("trace: reading app name: %w", err)
	}
	h.app = string(app)
	var cnt [8]byte
	if _, err := io.ReadFull(r, cnt[:]); err != nil {
		return header{}, fmt.Errorf("trace: reading count: %w", err)
	}
	if h.count = binary.LittleEndian.Uint64(cnt[:]); h.count > maxRecords {
		return header{}, fmt.Errorf("trace: implausible record count %d", h.count)
	}
	return h, nil
}

// putRecord encodes r into b.
func putRecord(b *[recordSize]byte, r Record) {
	binary.LittleEndian.PutUint16(b[0:], uint16(r.Node))
	b[2] = byte(r.Side)
	binary.LittleEndian.PutUint16(b[3:], uint16(r.Sender))
	b[5] = byte(r.Type)
	binary.LittleEndian.PutUint64(b[6:], uint64(r.Addr))
	binary.LittleEndian.PutUint32(b[14:], uint32(r.Iter))
}

// decodeRecord decodes record idx of a trace over nodes nodes and
// iters iterations and validates everything an evaluator indexes or
// encodes with: out-of-range nodes would index predictor slices out of
// bounds; senders beyond 12 bits would panic tuple packing; an
// iteration past the header's count would size per-iteration arrays
// from a crafted number. A count of 0 leaves that bound unchecked.
func decodeRecord(b *[recordSize]byte, idx uint64, nodes int, iters uint32) (Record, error) {
	r := Record{
		Node:   coherence.NodeID(int16(binary.LittleEndian.Uint16(b[0:]))),
		Side:   Side(b[2]),
		Sender: coherence.NodeID(int16(binary.LittleEndian.Uint16(b[3:]))),
		Type:   coherence.MsgType(b[5]),
		Addr:   coherence.Addr(binary.LittleEndian.Uint64(b[6:])),
		Iter:   int32(binary.LittleEndian.Uint32(b[14:])),
	}
	if r.Side >= numSides || !r.Type.Valid() ||
		r.Node < 0 || (nodes > 0 && int(r.Node) >= nodes) ||
		r.Sender < 0 || r.Sender >= 1<<12 ||
		r.Iter < 0 || (iters > 0 && uint32(r.Iter) >= iters) {
		return Record{}, fmt.Errorf("trace: corrupt record %d: %+v", idx, r)
	}
	return r, nil
}

// payloadSum counts and checksums every byte written to it: the
// running totals the footer pins. Encoders write the payload through
// it (io.MultiWriter); decoders tee what they consume into it.
type payloadSum struct {
	crc hash.Hash32
	n   uint64
}

func newPayloadSum() *payloadSum { return &payloadSum{crc: crc32.New(crcTable)} }

func (p *payloadSum) Write(b []byte) (int, error) {
	p.crc.Write(b)
	p.n += uint64(len(b))
	return len(b), nil
}

// footer returns the footer sealing the bytes summed so far.
func (p *payloadSum) footer() [footerSize]byte {
	var foot [footerSize]byte
	copy(foot[0:], footerMagic)
	binary.LittleEndian.PutUint64(foot[4:], p.n)
	binary.LittleEndian.PutUint32(foot[12:], p.crc.Sum32())
	return foot
}

// checkFooter reads the footer from r and verifies it against the
// length and checksum of the payload actually consumed. r must not
// feed p (the footer bytes are not part of themselves).
func (p *payloadSum) checkFooter(r io.Reader) error {
	payloadLen, payloadSum := p.n, p.crc.Sum32()
	var foot [footerSize]byte
	if _, err := io.ReadFull(r, foot[:]); err != nil {
		return fmt.Errorf("trace: reading footer (truncated file?): %w", err)
	}
	if string(foot[0:4]) != footerMagic {
		return fmt.Errorf("trace: bad footer magic %q (truncated file?)", foot[0:4])
	}
	if wantLen := binary.LittleEndian.Uint64(foot[4:]); wantLen != payloadLen {
		return fmt.Errorf("trace: payload length %d, footer says %d (truncated file?)", payloadLen, wantLen)
	}
	if wantSum := binary.LittleEndian.Uint32(foot[12:]); wantSum != payloadSum {
		return fmt.Errorf("trace: payload checksum %#x, footer says %#x (corrupted file?)", payloadSum, wantSum)
	}
	return nil
}

// Write serializes the trace to w in the v2 format.
func Write(w io.Writer, t *Trace) error {
	hdr, err := header{
		app:   t.App,
		nodes: t.Nodes,
		iters: uint32(t.Iterations),
		count: uint64(len(t.Records)),
	}.encode()
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	sum := newPayloadSum()
	pw := io.MultiWriter(bw, sum)
	if _, err := pw.Write(hdr); err != nil {
		return err
	}
	var rec [recordSize]byte
	for _, r := range t.Records {
		putRecord(&rec, r)
		if _, err := pw.Write(rec[:]); err != nil {
			return err
		}
	}
	foot := sum.footer()
	if _, err := bw.Write(foot[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// Read deserializes a trace written by Write (or StreamWriter) by
// draining a StreamReader, so the v2 length and checksum footer is
// verified before the trace is returned. Records grow by append rather
// than trusting the header's count with one huge up-front allocation:
// a corrupt header then fails at the first short read instead of
// attempting a multi-gigabyte make().
func Read(r io.Reader) (*Trace, error) {
	sr, err := NewStreamReader(r)
	if err != nil {
		return nil, err
	}
	t := &Trace{App: sr.App(), Nodes: sr.Nodes(), Iterations: sr.Iterations()}
	var buf [1024]Record
	for {
		n, err := sr.Next(buf[:])
		t.Records = append(t.Records, buf[:n]...)
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// WriteText dumps the trace in a human-readable one-record-per-line
// form, for debugging and diffing.
func WriteText(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# trace app=%s nodes=%d iterations=%d records=%d\n",
		t.App, t.Nodes, t.Iterations, len(t.Records))
	for _, r := range t.Records {
		fmt.Fprintf(bw, "%d %s@%s %s %s %#x\n",
			r.Iter, r.Side, r.Node, r.Sender, r.Type, uint64(r.Addr))
	}
	return bw.Flush()
}
