package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"reflect"
	"testing"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
	"github.com/cosmos-coherence/cosmos/internal/core"
)

// sampleState builds a plausible service state: driven predictors,
// cursors, and response tails consistent with them.
func sampleState(t testing.TB, streams int) State {
	t.Helper()
	r := rand.New(rand.NewSource(41))
	st := State{Streams: make([]StreamState, streams)}
	for i := range st.Streams {
		p, err := core.New(core.Config{Depth: 2, FilterMax: 1})
		if err != nil {
			t.Fatal(err)
		}
		var resp []Response
		for j := 0; j < 200+50*i; j++ {
			addr := coherence.Addr(r.Intn(8) * 64)
			p.Observe(addr, coherence.Tuple{
				Sender: coherence.NodeID(r.Intn(16)),
				Type:   coherence.MsgType(1 + r.Intn(int(coherence.NumMsgTypes)-1)),
			})
			pred, ok := p.Predict(addr)
			resp = append(resp, Response{Pred: pred, OK: ok})
		}
		applied := uint64(len(resp))
		acked := applied - uint64(3+i)
		st.Streams[i] = StreamState{
			Applied: applied,
			Acked:   acked,
			Resp:    append([]Response(nil), resp[acked:]...),
			Snap:    p.Snapshot(),
		}
	}
	return st
}

func TestCPSSRoundTrip(t *testing.T) {
	st := sampleState(t, 3)
	enc := EncodeCPSS(st)
	got, err := DecodeCPSS(enc)
	if err != nil {
		t.Fatalf("DecodeCPSS: %v", err)
	}
	if !reflect.DeepEqual(got, st) {
		t.Fatal("round trip changed the state")
	}
	// Content addressing: the same logical state encodes identically.
	if Digest(enc) != Digest(EncodeCPSS(st)) {
		t.Fatal("re-encoding the same state yields a different digest")
	}

	// Empty state round-trips too.
	empty := State{Streams: []StreamState{}}
	got, err = DecodeCPSS(EncodeCPSS(empty))
	if err != nil || len(got.Streams) != 0 {
		t.Fatalf("empty round trip = %+v, %v", got, err)
	}
}

// refitFooter recomputes the footer after a deliberate payload edit,
// isolating the specific validation under test from the checksum.
func refitFooter(enc []byte) []byte {
	body := enc[:len(enc)-cpssFooterSize]
	out := append([]byte(nil), body...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(body)))
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(body, cpssCRCTable))
}

// TestCPSSDistinctErrors pins the loud-and-distinct contract: the
// three failure classes are told apart by errors.Is.
func TestCPSSDistinctErrors(t *testing.T) {
	enc := EncodeCPSS(sampleState(t, 2))

	// Version mismatch: a well-formed container from a future build.
	future := append([]byte(nil), enc...)
	binary.LittleEndian.PutUint16(future[4:], cpssVersion+1)
	future = refitFooter(future)
	if _, err := DecodeCPSS(future); !errors.Is(err, ErrVersion) {
		t.Fatalf("future version: %v, want ErrVersion", err)
	}

	// Truncation: payload bytes missing, footer intact.
	torn := append([]byte(nil), enc[:len(enc)-cpssFooterSize-5]...)
	torn = append(torn, enc[len(enc)-cpssFooterSize:]...)
	if _, err := DecodeCPSS(torn); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated payload: %v, want ErrTruncated", err)
	}
	if _, err := DecodeCPSS(enc[:8]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("stub file: %v, want ErrTruncated", err)
	}

	// Corruption: a flipped payload bit.
	flip := append([]byte(nil), enc...)
	flip[10] ^= 0x04
	if _, err := DecodeCPSS(flip); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bit flip: %v, want ErrCorrupt", err)
	}
	// Corruption: wrong magic.
	mag := append([]byte(nil), enc...)
	mag[0] = 'X'
	if _, err := DecodeCPSS(mag); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: %v, want ErrCorrupt", err)
	}
	// The classes never overlap.
	for name, data := range map[string][]byte{"future": future, "torn": torn, "flip": flip} {
		_, err := DecodeCPSS(data)
		n := 0
		for _, cls := range []error{ErrTruncated, ErrCorrupt, ErrVersion} {
			if errors.Is(err, cls) {
				n++
			}
		}
		if n != 1 {
			t.Errorf("%s: error %v matches %d classes, want exactly 1", name, err, n)
		}
	}
}

// TestCPSSNeverPanics chops and flips everywhere: every damaged input
// must return an error (or, for flips that land in stored values,
// decode) without panicking or over-allocating.
func TestCPSSNeverPanics(t *testing.T) {
	enc := EncodeCPSS(sampleState(t, 2))
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeCPSS(enc[:cut]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded", cut, len(enc))
		}
	}
	rejected := 0
	for i := range enc {
		mut := bytes.Clone(enc)
		mut[i] ^= 0x10
		if _, err := DecodeCPSS(mut); err != nil {
			rejected++
		}
	}
	// The checksum covers every payload byte, so only flips inside the
	// footer's own length field can possibly slip through — and those
	// fail the length check. Everything must be rejected.
	if rejected != len(enc) {
		t.Fatalf("%d of %d bit flips rejected, want all", rejected, len(enc))
	}
}

// FuzzDecodeCPSS feeds arbitrary bytes to the container decoder: it
// must never panic, every rejection must wrap exactly one failure
// class, and any state it accepts must re-encode to the input bytes
// (the encoding is canonical, so the digest is a content address).
func FuzzDecodeCPSS(f *testing.F) {
	enc := EncodeCPSS(sampleState(f, 2))
	f.Add(enc)
	f.Add(EncodeCPSS(State{Streams: []StreamState{}}))
	// Truncations, including a torn payload under an intact footer.
	for _, cut := range []int{0, 8, 20, len(enc) - cpssFooterSize, len(enc) - 1} {
		f.Add(bytes.Clone(enc[:cut]))
	}
	torn := append(bytes.Clone(enc[:len(enc)-cpssFooterSize-5]), enc[len(enc)-cpssFooterSize:]...)
	f.Add(torn)
	// Bit flips, raw and with the footer refitted so the structural
	// checks behind the checksum are reached.
	for _, i := range []int{0, 5, 10, 30, len(enc) - 3} {
		mut := bytes.Clone(enc)
		mut[i] ^= 0x10
		f.Add(mut)
		f.Add(refitFooter(mut))
	}
	future := bytes.Clone(enc)
	binary.LittleEndian.PutUint16(future[4:], cpssVersion+1)
	f.Add(refitFooter(future))

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := DecodeCPSS(data)
		if err != nil {
			n := 0
			for _, cls := range []error{ErrTruncated, ErrCorrupt, ErrVersion} {
				if errors.Is(err, cls) {
					n++
				}
			}
			if n != 1 {
				t.Fatalf("error %v matches %d failure classes, want exactly 1", err, n)
			}
			return
		}
		if got := EncodeCPSS(st); !bytes.Equal(got, data) {
			t.Fatalf("accepted state re-encodes to %d bytes differing from the %d-byte input", len(got), len(data))
		}
	})
}
