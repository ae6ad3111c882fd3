package trace

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/bits"

	"tesla/internal/core"
)

// Trace files come in two interchangeable encodings sharing one format
// version: a compact binary form (the default — varint fields, delta-coded
// sequence numbers, interned strings) and a JSON form for inspection and
// toolability. Read distinguishes them by the first byte; both encoders
// write Version and both decoders reject any other version.

// magic opens every binary trace file.
const magic = "TESLATRC"

// maxTraceEvents caps what a decoder will allocate for one trace,
// protecting against corrupt or hostile length prefixes.
const maxTraceEvents = 1 << 26

// writeChunk is how much encoded output Write accumulates before handing
// it to its writer.
const writeChunk = 64 << 10

// Write encodes the trace in compact binary form. The encoding is built in
// memory and handed to w every writeChunk bytes, so w sees few large
// writes whatever the trace length.
func Write(w io.Writer, t *Trace) error {
	enc := newEncoder(make([]byte, 0, 4096))
	enc.header(t.Dropped, t.Automata, len(t.Events))
	for i := range t.Events {
		enc.event(&t.Events[i])
		if len(enc.buf) >= writeChunk {
			if _, err := w.Write(enc.buf); err != nil {
				return err
			}
			enc.buf = enc.buf[:0]
		}
	}
	if len(enc.buf) == 0 {
		return nil
	}
	_, err := w.Write(enc.buf)
	return err
}

// WriteJSON encodes the trace as indented JSON.
func WriteJSON(w io.Writer, t *Trace) error {
	t.FormatVersion = Version
	e := json.NewEncoder(w)
	e.SetIndent("", "  ")
	return e.Encode(t)
}

// Read decodes a trace in either encoding, sniffing the first byte: JSON
// traces start with '{', binary traces with the magic string.
func Read(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	first, err := br.Peek(1)
	if err != nil {
		return nil, fmt.Errorf("trace: empty input: %w", err)
	}
	if first[0] == '{' {
		return readJSON(br)
	}
	return readBinary(br)
}

func readJSON(r io.Reader) (*Trace, error) {
	var t Trace
	if err := json.NewDecoder(r).Decode(&t); err != nil {
		return nil, fmt.Errorf("trace: bad JSON trace: %w", err)
	}
	if t.FormatVersion != Version {
		return nil, versionError(uint64(t.FormatVersion))
	}
	return &t, nil
}

// readBinary loads a whole binary trace through the incremental
// StreamDecoder (stream.go), which owns the wire format.
func readBinary(br *bufio.Reader) (*Trace, error) {
	sd, err := NewStreamDecoder(br)
	if err != nil {
		return nil, err
	}
	t := &Trace{
		FormatVersion: Version,
		Automata:      sd.Automata(),
		Dropped:       sd.Dropped(),
	}
	for {
		ev, err := sd.Next()
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, err
		}
		t.Events = append(t.Events, ev)
	}
}

// encoder appends the binary form to buf. Strings are interned: the first
// occurrence writes ref == table length followed by the bytes; later
// occurrences write only the ref. Sequence numbers are delta-coded
// against the previous event's.
type encoder struct {
	buf     []byte
	strings map[string]uint64
	prevSeq uint64
}

// newEncoder returns an encoder appending to dst.
func newEncoder(dst []byte) *encoder {
	return &encoder{buf: dst, strings: map[string]uint64{}}
}

// header appends the magic and the trace header: format version, drop
// count, automata names and the number of event records that follow.
func (e *encoder) header(dropped uint64, automata []string, events int) {
	e.buf = append(e.buf, magic...)
	e.uvarint(Version)
	e.uvarint(dropped)
	e.uvarint(uint64(len(automata)))
	for _, name := range automata {
		e.str(name)
	}
	e.uvarint(uint64(events))
}

// event appends one event record. decodeEvent (stream.go) is its inverse.
func (e *encoder) event(ev *Event) {
	e.uvarint(ev.Seq - e.prevSeq)
	e.prevSeq = ev.Seq
	e.varint(int64(ev.Thread))
	e.buf = append(e.buf, byte(ev.Kind))
	e.varint(ev.Time)
	switch ev.Kind {
	case KindProgram:
		e.buf = append(e.buf, byte(ev.Prog))
		e.str(ev.Fn)
		e.str(ev.Field)
		e.varint(int64(ev.Op))
		e.varint(int64(ev.Auto))
		e.varint(int64(ev.Sym))
		e.varint(int64(ev.Slot))
		if ev.HasRet {
			e.buf = append(e.buf, 1)
			e.varint(int64(ev.Ret))
		} else {
			e.buf = append(e.buf, 0)
		}
		e.uvarint(uint64(len(ev.Vals)))
		for _, v := range ev.Vals {
			e.varint(int64(v))
		}
		e.uvarint(uint64(len(ev.InStack)))
		for _, id := range ev.InStack {
			e.varint(int64(id))
		}
	default:
		e.str(ev.Class)
		e.str(ev.Symbol)
		e.key(ev.Key)
		e.key(ev.ParentKey)
		e.uvarint(uint64(ev.From))
		e.uvarint(uint64(ev.To))
		e.uvarint(uint64(ev.State))
		e.varint(int64(ev.Verdict))
		if ev.Kind == KindQuarantine {
			// Trailing byte for the newest kind only, so traces
			// without quarantine events keep the original layout.
			if ev.On {
				e.buf = append(e.buf, 1)
			} else {
				e.buf = append(e.buf, 0)
			}
		}
	}
}

func (e *encoder) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

func (e *encoder) varint(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

func (e *encoder) str(s string) {
	if ref, ok := e.strings[s]; ok {
		e.uvarint(ref)
		return
	}
	ref := uint64(len(e.strings))
	e.strings[s] = ref
	e.uvarint(ref)
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// key writes the bound mask then only the bound slots' values.
func (e *encoder) key(k core.Key) {
	e.uvarint(uint64(k.Mask))
	for i := 0; i < core.KeySize; i++ {
		if k.Bound(i) {
			e.varint(int64(k.Data[i]))
		}
	}
}

type decoder struct {
	r       *bufio.Reader
	strings []string
	err     error
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	b, err := d.r.ReadByte()
	d.err = err
	return b
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(d.r)
	d.err = err
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadVarint(d.r)
	d.err = err
	return v
}

func (d *decoder) str() string {
	ref := d.uvarint()
	if d.err != nil {
		return ""
	}
	if ref < uint64(len(d.strings)) {
		return d.strings[ref]
	}
	if ref != uint64(len(d.strings)) {
		d.err = fmt.Errorf("string ref %d out of order (table has %d)", ref, len(d.strings))
		return ""
	}
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > 1<<20 {
		d.err = fmt.Errorf("implausible string length %d", n)
		return ""
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(d.r, buf); err != nil {
		d.err = err
		return ""
	}
	s := string(buf)
	d.strings = append(d.strings, s)
	return s
}

func (d *decoder) key() core.Key {
	var k core.Key
	mask := d.uvarint()
	if d.err != nil {
		return k
	}
	if mask >= 1<<core.KeySize {
		d.err = fmt.Errorf("key mask %#x exceeds KeySize=%d", mask, core.KeySize)
		return k
	}
	k.Mask = uint32(mask)
	for i := 0; i < bits.Len32(k.Mask); i++ {
		if k.Bound(i) {
			k.Data[i] = core.Value(d.varint())
		}
	}
	return k
}
