package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"tesla/internal/core"
	"tesla/internal/monitor"
	"tesla/internal/spec"
)

// This file is the streaming half of the codec: an incremental event
// decoder over the binary trace format, and a length-prefixed frame layer
// for shipping traces over a connection. Read loads a whole trace into
// memory, which is right for replay and shrinking; an aggregation server
// ingesting thousands of producer streams must not hold more than one
// event (plus one frame) per connection, and `tesla-trace show` on a
// multi-gigabyte trace should print it in constant memory. Both sit on
// StreamDecoder; the tesla-agg wire protocol additionally wraps each
// encoded trace in a Frame so a connection can carry many delta traces
// interleaved with control messages.

// StreamDecoder decodes a binary trace incrementally: the header (format
// version, drop count, automata names) is read at construction, then Next
// yields one event at a time. Memory is bounded by the largest single
// event plus the interned string table, not by the trace length.
type StreamDecoder struct {
	dec      *decoder
	dropped  uint64
	automata []string
	nEvents  uint64
	read     uint64
	prevSeq  uint64
}

// NewStreamDecoder reads the binary header from r and returns a decoder
// positioned at the first event. It rejects bad magic, mismatched format
// versions and implausible counts exactly like Read.
func NewStreamDecoder(r io.Reader) (*StreamDecoder, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil || string(head) != magic {
		return nil, fmt.Errorf("trace: not a trace file (bad magic)")
	}
	dec := &decoder{r: br}
	if v := dec.uvarint(); dec.err == nil && v != Version {
		return nil, versionError(v)
	}
	sd := &StreamDecoder{dec: dec}
	sd.dropped = dec.uvarint()
	nAutos := dec.uvarint()
	if dec.err == nil && nAutos > maxTraceEvents {
		return nil, fmt.Errorf("trace: implausible automata count %d", nAutos)
	}
	for i := uint64(0); i < nAutos && dec.err == nil; i++ {
		sd.automata = append(sd.automata, dec.str())
	}
	sd.nEvents = dec.uvarint()
	if dec.err == nil && sd.nEvents > maxTraceEvents {
		return nil, fmt.Errorf("trace: implausible event count %d", sd.nEvents)
	}
	if dec.err != nil {
		return nil, fmt.Errorf("trace: truncated or corrupt trace: %w", dec.err)
	}
	return sd, nil
}

// versionError is the shared actionable version-mismatch diagnostic: it
// names both versions and what to do about the gap. Producers on the agg
// wire protocol are rejected at the hello frame instead (with the
// producing tool named), so this is only reached for trace files.
func versionError(got uint64) error {
	return fmt.Errorf("trace: file is format version %d but this build reads version %d — re-record it with a tesla-run matching this build, or convert it with the tesla-trace that wrote it", got, Version)
}

// Automata returns the automata names recorded in the header.
func (sd *StreamDecoder) Automata() []string { return sd.automata }

// Dropped returns the producer-side ring-drop count from the header.
func (sd *StreamDecoder) Dropped() uint64 { return sd.dropped }

// Len returns the event count declared by the header.
func (sd *StreamDecoder) Len() int { return int(sd.nEvents) }

// Next decodes and returns the next event. It returns io.EOF after the
// last declared event, and a descriptive error on truncation or
// corruption.
func (sd *StreamDecoder) Next() (Event, error) {
	if sd.read >= sd.nEvents {
		return Event{}, io.EOF
	}
	ev, err := decodeEvent(sd.dec, &sd.prevSeq)
	if err != nil {
		sd.read = sd.nEvents // poison: no further progress
		return Event{}, err
	}
	sd.read++
	return ev, nil
}

// decodeEvent decodes one event record, threading the delta-coded sequence
// number through prevSeq. It is the single event-wire-format authority,
// shared by StreamDecoder and (through it) Read.
func decodeEvent(dec *decoder, prevSeq *uint64) (Event, error) {
	var ev Event
	*prevSeq += dec.uvarint()
	ev.Seq = *prevSeq
	ev.Thread = int(dec.varint())
	ev.Kind = Kind(dec.byte())
	ev.Time = dec.varint()
	switch ev.Kind {
	case KindProgram:
		if err := decodeProgram(dec, &ev); err != nil {
			return Event{}, err
		}
	case KindInit, KindClone, KindTransition, KindAccept, KindFail, KindOverflow, KindEvict, KindQuarantine:
		ev.Class = dec.str()
		ev.Symbol = dec.str()
		ev.Key = dec.key()
		ev.ParentKey = dec.key()
		ev.From = uint32(dec.uvarint())
		ev.To = uint32(dec.uvarint())
		ev.State = uint32(dec.uvarint())
		ev.Verdict = decodeVerdict(dec)
		if ev.Kind == KindQuarantine {
			ev.On = dec.byte() != 0
		}
	default:
		if dec.err != nil {
			break
		}
		return Event{}, fmt.Errorf("trace: unknown event kind %d", ev.Kind)
	}
	if dec.err != nil {
		return Event{}, fmt.Errorf("trace: truncated or corrupt trace: %w", dec.err)
	}
	return ev, nil
}

// decodeProgram decodes the KindProgram payload into ev.
func decodeProgram(dec *decoder, ev *Event) error {
	ev.Prog = monitor.ProgKind(dec.byte())
	ev.Fn = dec.str()
	ev.Field = dec.str()
	ev.Op = spec.AssignOp(dec.varint())
	ev.Auto = int(dec.varint())
	ev.Sym = int(dec.varint())
	ev.Slot = int(dec.varint())
	if dec.byte() != 0 {
		ev.HasRet = true
		ev.Ret = core.Value(dec.varint())
	}
	// Grow element-wise with a small initial capacity: a corrupt length
	// prefix must cost at most the bytes actually present, not an upfront
	// make() of the claimed size.
	if n := dec.uvarint(); n > 0 && dec.err == nil {
		if n > maxTraceEvents {
			return fmt.Errorf("trace: implausible value count %d", n)
		}
		ev.Vals = make([]core.Value, 0, min(n, 64))
		for j := uint64(0); j < n && dec.err == nil; j++ {
			ev.Vals = append(ev.Vals, core.Value(dec.varint()))
		}
	}
	if n := dec.uvarint(); n > 0 && dec.err == nil {
		if n > maxTraceEvents {
			return fmt.Errorf("trace: implausible instack count %d", n)
		}
		ev.InStack = make([]int, 0, min(n, 64))
		for j := uint64(0); j < n && dec.err == nil; j++ {
			ev.InStack = append(ev.InStack, int(dec.varint()))
		}
	}
	return nil
}

func decodeVerdict(dec *decoder) core.VerdictKind {
	return core.VerdictKind(dec.varint())
}

// Frame layer. A frame is a kind byte, a uvarint payload length and the
// payload bytes. The tesla-agg wire protocol is a stream of frames after
// an 8-byte stream magic; payload schemas belong to internal/agg — this
// layer only moves opaque, bounded payloads.

// MaxFramePayload bounds a single frame so a corrupt or hostile length
// prefix cannot make a reader allocate unboundedly.
const MaxFramePayload = 64 << 20

// FrameWriter writes length-prefixed frames. It buffers each frame into
// one Write call so concurrent readers never observe a torn header.
type FrameWriter struct {
	w   io.Writer
	buf []byte
}

// NewFrameWriter returns a frame writer over w.
func NewFrameWriter(w io.Writer) *FrameWriter { return &FrameWriter{w: w} }

// Frame writes one frame.
func (fw *FrameWriter) Frame(kind byte, payload []byte) error {
	if len(payload) > MaxFramePayload {
		return fmt.Errorf("trace: frame payload %d exceeds limit %d", len(payload), MaxFramePayload)
	}
	fw.buf = fw.buf[:0]
	fw.buf = append(fw.buf, kind)
	fw.buf = binary.AppendUvarint(fw.buf, uint64(len(payload)))
	fw.buf = append(fw.buf, payload...)
	_, err := fw.w.Write(fw.buf)
	return err
}

// FrameReader reads length-prefixed frames incrementally.
type FrameReader struct {
	r *bufio.Reader
}

// NewFrameReader returns a frame reader over r.
func NewFrameReader(r io.Reader) *FrameReader {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	return &FrameReader{r: br}
}

// Next reads one frame. A clean end-of-stream at a frame boundary returns
// io.EOF; truncation inside a frame returns io.ErrUnexpectedEOF (wrapped),
// so callers can tell an orderly close from a cut connection.
func (fr *FrameReader) Next() (kind byte, payload []byte, err error) {
	kind, err = fr.r.ReadByte()
	if err != nil {
		return 0, nil, err // io.EOF here is a clean boundary
	}
	n, err := binary.ReadUvarint(fr.r)
	if err != nil {
		return 0, nil, fmt.Errorf("trace: truncated frame header: %w", noEOF(err))
	}
	if n > MaxFramePayload {
		return 0, nil, fmt.Errorf("trace: implausible frame length %d", n)
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		return 0, nil, fmt.Errorf("trace: truncated frame payload: %w", noEOF(err))
	}
	return kind, payload, nil
}

// noEOF converts a bare io.EOF into io.ErrUnexpectedEOF: inside a frame,
// end-of-input is truncation, not a clean end.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
