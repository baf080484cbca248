package trace

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"testing"
)

// drainStream decodes data through a StreamReader in 3-record windows,
// the path Read does not exercise window by window.
func drainStream(data []byte) (*Trace, error) {
	sr, err := NewStreamReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	t := &Trace{App: sr.App(), Nodes: sr.Nodes(), Iterations: sr.Iterations()}
	buf := make([]Record, 3)
	for {
		n, err := sr.Next(buf)
		t.Records = append(t.Records, buf[:n]...)
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

func sameTrace(a, b *Trace) bool {
	return a.App == b.App && a.Nodes == b.Nodes && a.Iterations == b.Iterations &&
		reflect.DeepEqual(a.Records, b.Records)
}

// FuzzRead feeds arbitrary bytes to the decoders. Read and a drained
// StreamReader must agree — same header and records, or both fail —
// and anything accepted must pass Verify and survive a Write→Read
// round trip unchanged.
func FuzzRead(f *testing.F) {
	var buf bytes.Buffer
	if err := Write(&buf, sampleTrace()); err != nil {
		f.Fatal(err)
	}
	full := buf.Bytes()
	f.Add(full)
	// Truncations: inside the magic, the header, the records and the
	// footer.
	for _, cut := range []int{0, 3, 10, 30, len(full) - footerSize - 5, len(full) - 1} {
		f.Add(bytes.Clone(full[:cut]))
	}
	// Bit flips in the header, a record and the footer.
	for _, i := range []int{5, 20, 40, len(full) - 3} {
		mut := bytes.Clone(full)
		mut[i] ^= 0x40
		f.Add(mut)
	}
	// Hostile inputs: records the header does not cover, senders beyond
	// 12 bits, negative iterations or ones past the header's count,
	// implausible and inflated counts, and a v1 stream.
	for _, mutate := range []func(*Trace){
		func(tr *Trace) { tr.Records[0].Node = 999 },
		func(tr *Trace) { tr.Records[0].Sender = 5000 },
		func(tr *Trace) { tr.Records[0].Iter = -1 },
		func(tr *Trace) { tr.Records[0].Iter = 1 << 22 },
	} {
		tr := sampleTrace()
		mutate(tr)
		var b bytes.Buffer
		if err := Write(&b, tr); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
	}
	countOff := 4 + 14 + len(sampleTrace().App)
	for _, count := range []uint64{1 << 56, 0x0f0040} {
		mut := bytes.Clone(full)
		binary.LittleEndian.PutUint64(mut[countOff:], count)
		f.Add(mut)
	}
	f.Add([]byte("CTRC\x01\x00\x02\x00\x01\x00\x00\x00\x01\x00\x00\x00\x00\x00x\x00\x00\x00\x00\x00\x00\x00\x00"))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Read(bytes.NewReader(data))
		streamed, serr := drainStream(data)
		if (err == nil) != (serr == nil) {
			t.Fatalf("Read error %v, StreamReader error %v", err, serr)
		}
		if err != nil {
			return
		}
		if !sameTrace(got, streamed) {
			t.Fatalf("Read and StreamReader disagree:\n%+v\n%+v", got, streamed)
		}
		if err := Verify(bytes.NewReader(data)); err != nil {
			t.Fatalf("Verify rejects what Read accepts: %v", err)
		}
		var enc bytes.Buffer
		if err := Write(&enc, got); err != nil {
			t.Fatalf("Write of a decoded trace: %v", err)
		}
		back, err := Read(&enc)
		if err != nil {
			t.Fatalf("re-reading a written trace: %v", err)
		}
		if !sameTrace(got, back) {
			t.Fatalf("Write→Read changed the trace:\n%+v\n%+v", got, back)
		}
	})
}
