package fsio

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Version is the durable format this build writes, and the only one it
// reads: the last byte of every file header and the second of every record
// body (see Header and AppendBodyHeader). A file or body of any other version
// is ErrVersion, never a torn tail and never rewritten.
const Version = 3

// Every durable file opens with an 8-byte header: fileMagic, two letters
// naming what the file holds, and Version as one ASCII digit. The magic's
// leading byte is outside ASCII, so no text file passes for a header.
const (
	fileMagic  = "\x93RPoL"
	headerSize = len(fileMagic) + 2 + 1
)

// Header returns the header a durable file holding kind (two letters) opens
// with.
func Header(kind string) string {
	return fileMagic + kind + string(rune('0'+Version))
}

// SplitHeader returns what follows header at the front of data. Data that
// ends inside the header, having matched it that far (an empty file
// included), is ErrTornFrame: an append-only file whose first write tore.
// Anything else that does not open with header is ErrVersion.
func SplitHeader(data []byte, header string) ([]byte, error) {
	if len(data) < len(header) {
		if string(data) == header[:len(data)] {
			return nil, fmt.Errorf("%d of %d header bytes: %w", len(data), len(header), ErrTornFrame)
		}
		return nil, fmt.Errorf("header %q, want %q: %w", data, header, ErrVersion)
	}
	if got := string(data[:len(header)]); got != header {
		return nil, fmt.Errorf("header %q, want %q: %w", got, header, ErrVersion)
	}
	return data[len(header):], nil
}

// Frame layout: a 4-byte big-endian payload length, the same length's
// bitwise complement, the payload, and an 8-byte big-endian check word over
// everything before it (see Checksum).
//
// The complement makes a damaged length corruption rather than a torn frame:
// a length and its complement sit exactly 32 bits apart, so no burst of up to
// 32 flipped bits changes both consistently. The check word covers the length
// too, so a frame read whole detects every such burst anywhere in it.
const (
	frameLenSize  = 8
	frameSumSize  = 8
	frameOverhead = frameLenSize + frameSumSize
	// maxFramePayload bounds one frame; a corrupt length prefix otherwise
	// turns into a multi-gigabyte allocation.
	maxFramePayload = 1 << 30
)

// FileOverhead is the byte cost EncodeFile adds to a payload: the file header
// plus one frame's length prefix and check word. Storage accounting adds it
// per persisted file.
const FileOverhead = headerSize + frameOverhead

// fileHeader opens a checksummed single-frame file written by EncodeFile.
var fileHeader = Header("fs")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns data's 64-bit check word: CRC-32C in the high half and
// CRC-32/IEEE in the low half, both run on the CPU's CRC instructions where
// it has them. Each CRC alone detects every burst of up to 32 flipped bits;
// their generators share no factor, so the pair detects every error confined
// to eight consecutive bytes. It is not cryptographic: it detects accidental
// corruption (torn writes, bit rot), while adversarial binding is the
// commitment layer's job.
func Checksum(data []byte) uint64 {
	return uint64(crc32.Checksum(data, castagnoli))<<32 | uint64(crc32.ChecksumIEEE(data))
}

// AppendFrame appends one checksummed frame carrying payload to dst and
// returns the extended slice.
func AppendFrame(dst, payload []byte) []byte {
	start := len(dst)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.BigEndian.AppendUint32(dst, ^uint32(len(payload)))
	dst = append(dst, payload...)
	return binary.BigEndian.AppendUint64(dst, Checksum(dst[start:]))
}

// ReadFrame parses one frame from the front of data, returning its payload
// and the remaining bytes. A truncation (fewer bytes than the frame
// declares) is ErrTornFrame; a length that disagrees with its complement, an
// absurd declared length or a check-word mismatch is ErrChecksum. The payload
// aliases data.
func ReadFrame(data []byte) (payload, rest []byte, err error) {
	if len(data) < frameLenSize {
		return nil, nil, fmt.Errorf("%d bytes before length prefix: %w", len(data), ErrTornFrame)
	}
	// Compared as unsigned first: on a 32-bit int a length above 2^31
	// would turn negative and slip past the cap.
	declared := binary.BigEndian.Uint32(data)
	if binary.BigEndian.Uint32(data[4:]) != ^declared {
		return nil, nil, fmt.Errorf("length prefix %#x fails its complement: %w", declared, ErrChecksum)
	}
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

// EncodeFile wraps payload as a checksummed single-frame file: header plus
// one frame. Readers use DecodeFile.
func EncodeFile(payload []byte) []byte {
	out := make([]byte, 0, FileOverhead+len(payload))
	return AppendFile(out, payload)
}

// AppendFile appends the EncodeFile representation of payload to dst and
// returns the extended slice (the append-style variant for hot write paths
// that reuse one buffer across calls).
func AppendFile(dst, payload []byte) []byte {
	dst = append(dst, fileHeader...)
	return AppendFrame(dst, payload)
}

// DecodeFile returns the payload of a file written by EncodeFile, verifying
// its checksum. A file without this version's header is ErrVersion, one that
// stops inside it ErrTornFrame.
func DecodeFile(data []byte) ([]byte, error) {
	frame, err := SplitHeader(data, fileHeader)
	if err != nil {
		return nil, err
	}
	payload, rest, err := ReadFrame(frame)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%d trailing bytes: %w", len(rest), ErrChecksum)
	}
	return payload, nil
}
