package fsio

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Record bodies — a journal record, the pool's state snapshot, the chain
// snapshot — share one binary codec, the wire's style on disk. A body opens
// with three bytes:
//
//	[0] magic    0xD5
//	[1] version  Version
//	[2] kind     a byte the owning package assigns
//
// Fields follow in a fixed order per kind: varints for integers, uvarint
// lengths before strings, blobs and lists, 8 little-endian bytes for 64-bit
// digests and for a float64's IEEE-754 bits, and fixed-size fields (a 32-byte
// hash) as their bytes. A body is decoded only from a frame whose check word
// held, so any header or field that does not parse is not damage but another
// format: every decoding failure is ErrVersion.
const bodyMagic = 0xD5

// AppendBodyHeader appends the three-byte header of a body of kind.
func AppendBodyHeader(dst []byte, kind byte) []byte {
	return append(dst, bodyMagic, Version, kind)
}

// AppendInt appends v as a varint.
func AppendInt(dst []byte, v int64) []byte { return binary.AppendVarint(dst, v) }

// AppendUint64 appends v as 8 little-endian bytes.
func AppendUint64(dst []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(dst, v) }

// AppendFloat appends f's IEEE-754 bits as 8 little-endian bytes.
func AppendFloat(dst []byte, f float64) []byte { return AppendUint64(dst, math.Float64bits(f)) }

// AppendLen appends a count or length as a uvarint.
func AppendLen(dst []byte, n int) []byte { return binary.AppendUvarint(dst, uint64(n)) }

// AppendBlob appends b behind its uvarint length.
func AppendBlob(dst, b []byte) []byte { return append(AppendLen(dst, len(b)), b...) }

// AppendString appends s behind its uvarint length.
func AppendString(dst []byte, s string) []byte { return append(AppendLen(dst, len(s)), s...) }

// BodyReader walks a body with a sticky error: after the first field that
// does not parse every read returns a zero value, and the caller checks Done
// once at the end.
type BodyReader struct {
	buf []byte
	off int
	err error
}

// ReadBody checks body's header against kind and positions the reader on
// the first field.
func ReadBody(body []byte, kind byte) BodyReader {
	if len(body) < 3 || body[0] != bodyMagic || body[1] != Version || body[2] != kind {
		return BodyReader{err: fmt.Errorf("body header % x, want %02x %02x %02x: %w",
			body[:min(len(body), 3)], bodyMagic, Version, kind, ErrVersion)}
	}
	return BodyReader{buf: body, off: 3}
}

func (r *BodyReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%s at body offset %d of %d: %w", what, r.off, len(r.buf), ErrVersion)
	}
}

// Int reads a varint that must fit an int (32 bits wide on some targets).
func (r *BodyReader) Int() int {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 || v < math.MinInt || v > math.MaxInt {
		r.fail("integer")
		return 0
	}
	r.off += n
	return int(v)
}

// Int64 reads a varint.
func (r *BodyReader) Int64() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.fail("integer")
		return 0
	}
	r.off += n
	return v
}

// Len reads a uvarint count of items at least minSize bytes each (1 when
// minSize is smaller), compared as unsigned against the bytes left before it
// becomes an int, so no count can promise more than the body holds.
func (r *BodyReader) Len(minSize int) int {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 || v > uint64(len(r.buf)-r.off-n)/uint64(max(minSize, 1)) {
		r.fail("length")
		return 0
	}
	r.off += n
	return int(v)
}

// Uint64 reads 8 little-endian bytes.
func (r *BodyReader) Uint64() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.buf)-r.off < 8 {
		r.fail("8-byte field")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

// Float reads a float64 from its IEEE-754 bits.
func (r *BodyReader) Float() float64 { return math.Float64frombits(r.Uint64()) }

// Blob reads a length-prefixed byte field. It aliases the body.
func (r *BodyReader) Blob() []byte { return r.Bytes(r.Len(1)) }

// Bytes reads an n-byte field of fixed size. It aliases the body.
func (r *BodyReader) Bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.buf)-r.off {
		r.fail(fmt.Sprintf("%d-byte field", n))
		return nil
	}
	b := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

// Str reads a length-prefixed string.
func (r *BodyReader) Str() string { return string(r.Blob()) }

// Rest consumes and returns every byte left. It aliases the body.
func (r *BodyReader) Rest() []byte {
	if r.err != nil {
		return nil
	}
	b := r.buf[r.off:]
	r.off = len(r.buf)
	return b
}

// Done returns the first decoding failure, or ErrVersion when bytes are left
// over: a body holds exactly its kind's fields.
func (r *BodyReader) Done() error {
	if r.err == nil && r.off != len(r.buf) {
		r.fail(fmt.Sprintf("%d trailing bytes", len(r.buf)-r.off))
	}
	return r.err
}
