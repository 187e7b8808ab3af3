package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// WAL frame layout: u32 payload length | u32 CRC-32 (IEEE) of the payload
// | payload. A WAL file is its frames followed by a zero-filled tail
// (walFile): a group of frames lands with one positional write at the log
// end, so a crash can only tear the final frames, everything before them
// is byte-complete on disk, and recovery truncates the log at the first
// frame that fails the length or CRC check. A zero header — length 0,
// CRC 0 — is where the preallocated tail starts; no record encodes empty,
// so no real frame has one.
const (
	frameHeader = 8
	// maxFramePayload bounds the length prefix a frame may claim,
	// mirroring the transport's 1 MiB frame cap. A corrupt length that
	// claims more is rejected rather than trusted.
	maxFramePayload = 1 << 20
)

// Frame wraps a record payload in the WAL framing.
func Frame(payload []byte) []byte {
	return AppendFrame(make([]byte, 0, frameHeader+len(payload)), payload)
}

// AppendFrame appends payload's WAL framing (header + payload) to dst and
// returns the extended slice — the allocation-free form of Frame, used by
// the group-commit paths to gather many frames into one reused buffer.
func AppendFrame(dst, payload []byte) []byte {
	var hdr [frameHeader]byte
	binary.BigEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// ScanFrames parses as many whole, checksum-valid frames as buf holds.
// It returns the payloads, the byte offset of the log end (the first
// invalid frame, or the zero tail), and a human-readable reason when the
// scan stopped at damage. Reaching the end of buf, or a zero header (or
// a partial one) with only zeros after it, is a clean stop: that is the
// preallocated tail. Torn tails — a partial header, a payload cut short,
// trailing garbage, a flipped CRC bit, non-zero bytes after a zero
// header — all stop the scan at the frame boundary before the damage;
// they never error, because a torn final write is the expected crash
// artifact.
func ScanFrames(buf []byte) (payloads [][]byte, clean int, reason string) {
	off := 0
	for {
		if off == len(buf) {
			return payloads, off, ""
		}
		if len(buf)-off < frameHeader {
			if nonZeroEnd(buf[off:]) == 0 {
				return payloads, off, ""
			}
			return payloads, off, fmt.Sprintf("partial frame header (%d bytes) at offset %d", len(buf)-off, off)
		}
		n := binary.BigEndian.Uint32(buf[off:])
		sum := binary.BigEndian.Uint32(buf[off+4:])
		if n == 0 && sum == 0 {
			if nonZeroEnd(buf[off+frameHeader:]) == 0 {
				return payloads, off, ""
			}
			return payloads, off, fmt.Sprintf("zero frame header at offset %d followed by non-zero bytes", off)
		}
		if n > maxFramePayload {
			return payloads, off, fmt.Sprintf("frame at offset %d claims %d bytes (cap %d)", off, n, maxFramePayload)
		}
		if uint64(len(buf)-off-frameHeader) < uint64(n) {
			return payloads, off, fmt.Sprintf("frame at offset %d truncated: claims %d bytes, %d remain", off, n, len(buf)-off-frameHeader)
		}
		payload := buf[off+frameHeader : off+frameHeader+int(n)]
		if crc32.ChecksumIEEE(payload) != sum {
			return payloads, off, fmt.Sprintf("frame at offset %d fails CRC", off)
		}
		payloads = append(payloads, payload)
		off += frameHeader + int(n)
	}
}

// nonZeroEnd returns one past the index of b's last non-zero byte (0 when
// b is all zeros): how much of a WAL tail is damage rather than the
// zero-filled region.
func nonZeroEnd(b []byte) int {
	for i := len(b) - 1; i >= 0; i-- {
		if b[i] != 0 {
			return i + 1
		}
	}
	return 0
}
