package fsio

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
)

// Frame layout: a 4-byte big-endian payload length, the payload, and an
// 8-byte big-endian FNV-1a checksum over the length prefix and payload.
// Checksumming the length too means a flipped length bit is detected as
// corruption rather than silently re-framing the stream.
const (
	frameLenSize = 4
	frameSumSize = 8
	// frameOverhead is the per-frame framing cost in bytes.
	frameOverhead = frameLenSize + frameSumSize
	// maxFramePayload bounds one frame; a torn or corrupt length prefix
	// otherwise turns into a multi-gigabyte allocation.
	maxFramePayload = 1 << 30
)

// FileOverhead is the byte cost EncodeFile adds to a payload: the file magic
// plus one frame's length prefix and checksum. Storage accounting adds it
// per persisted file.
const FileOverhead = len(fileMagic) + frameOverhead

// fileMagic marks a checksummed single-frame file written by EncodeFile; its
// leading byte is outside ASCII, so no text file passes for one.
const fileMagic = "\x93RPoLfs1"

// Checksum returns the FNV-1a/SplitMix64 digest of data — the same hash
// family the deterministic fault plans use. It is not cryptographic: it
// detects accidental corruption (torn writes, bit rot), while adversarial
// binding is the commitment layer's job.
func Checksum(data []byte) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(data)
	return splitmix64(h.Sum64())
}

// AppendFrame appends one checksummed frame carrying payload to dst and
// returns the extended slice.
func AppendFrame(dst, payload []byte) []byte {
	var lenBuf [frameLenSize]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(payload)))
	start := len(dst)
	dst = append(dst, lenBuf[:]...)
	dst = append(dst, payload...)
	var sumBuf [frameSumSize]byte
	binary.BigEndian.PutUint64(sumBuf[:], Checksum(dst[start:]))
	return append(dst, sumBuf[:]...)
}

// ReadFrame parses one frame from the front of data, returning its payload
// and the remaining bytes. A truncation (fewer bytes than the frame
// declares) is ErrTornFrame; a checksum mismatch or an absurd declared
// length is ErrChecksum. The payload aliases data.
func ReadFrame(data []byte) (payload, rest []byte, err error) {
	if len(data) < frameLenSize {
		return nil, nil, fmt.Errorf("%d bytes before length prefix: %w", len(data), ErrTornFrame)
	}
	// Compared as unsigned first: on a 32-bit int a length above 2^31
	// would turn negative and slip past the cap.
	declared := binary.BigEndian.Uint32(data[:frameLenSize])
	if declared > maxFramePayload {
		return nil, nil, fmt.Errorf("declared payload %d bytes: %w", declared, ErrChecksum)
	}
	n := int(declared)
	total := frameLenSize + n + frameSumSize
	if len(data) < total {
		return nil, nil, fmt.Errorf("%d of %d frame bytes: %w", len(data), total, ErrTornFrame)
	}
	want := binary.BigEndian.Uint64(data[frameLenSize+n : total])
	if got := Checksum(data[:frameLenSize+n]); got != want {
		return nil, nil, ErrChecksum
	}
	return data[frameLenSize : frameLenSize+n], data[total:], nil
}

// EncodeFile wraps payload as a checksummed single-frame file: magic header
// plus one frame. Readers use DecodeFile.
func EncodeFile(payload []byte) []byte {
	out := make([]byte, 0, FileOverhead+len(payload))
	return AppendFile(out, payload)
}

// AppendFile appends the EncodeFile representation of payload to dst and
// returns the extended slice (the append-style variant for hot write paths
// that reuse one buffer across calls).
func AppendFile(dst, payload []byte) []byte {
	dst = append(dst, fileMagic...)
	return AppendFrame(dst, payload)
}

// DecodeFile returns the payload of a file written by EncodeFile, verifying
// its checksum. A file without the magic header is ErrUnframed.
func DecodeFile(data []byte) ([]byte, error) {
	if len(data) < len(fileMagic) || string(data[:len(fileMagic)]) != fileMagic {
		return nil, ErrUnframed
	}
	payload, rest, err := ReadFrame(data[len(fileMagic):])
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%d trailing bytes: %w", len(rest), ErrChecksum)
	}
	return payload, nil
}
