package store

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
)

// Tail-mangling injectors for the crash harness. They corrupt ONLY the
// final frame of a WAL file: because every group lands with a single
// write, a real crash can tear at most the last frames, and recovery's
// truncation-repair is allowed to discard only records that were never
// acknowledged — which is exactly the final (in-flight) one. They mangle
// in place and keep the file's zero-filled tail, as a crash would: bytes
// of the frame that never reached the disk read back as the zeros the
// file was preallocated with.

// TearMode selects how a simulated crash mangles the WAL tail.
type TearMode int

const (
	// TearNone kills at a record boundary: the file is left intact.
	TearNone TearMode = iota
	// TearTruncate cuts the final frame short (torn write): its tail
	// reverts to zeros.
	TearTruncate
	// TearGarbage cuts the final frame short and writes random junk at
	// the cut, as if the filesystem surfaced stale blocks.
	TearGarbage
	// TearFlipBit flips one bit inside the final frame (latent corruption
	// caught by the CRC).
	TearFlipBit
)

func (m TearMode) String() string {
	switch m {
	case TearNone:
		return "none"
	case TearTruncate:
		return "truncate"
	case TearGarbage:
		return "garbage"
	case TearFlipBit:
		return "flipbit"
	}
	return fmt.Sprintf("TearMode(%d)", int(m))
}

// MangleTail applies mode to the last frame of the WAL at path, using rng
// to pick the exact byte/bit. A missing or empty file, or one with no
// complete frame, is left untouched (nothing to tear). The store must be
// dead (Kill) before calling.
func MangleTail(path string, mode TearMode, rng *rand.Rand) error {
	if mode == TearNone {
		return nil
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	lastStart, lastLen := lastFrame(buf)
	if lastLen == 0 {
		return nil
	}
	switch mode {
	case TearTruncate:
		// Keep a strict prefix of the final frame (possibly zero bytes of
		// it — a boundary-adjacent tear).
		keep := lastStart + rng.Intn(lastLen)
		clear(buf[keep : lastStart+lastLen])
	case TearGarbage:
		keep := lastStart + rng.Intn(lastLen)
		junk := make([]byte, 3+rng.Intn(16))
		rng.Read(junk)
		clear(buf[keep : lastStart+lastLen])
		if grow := keep + len(junk) - len(buf); grow > 0 {
			buf = append(buf, make([]byte, grow)...)
		}
		copy(buf[keep:], junk)
	case TearFlipBit:
		bit := rng.Intn(lastLen * 8)
		buf[lastStart+bit/8] ^= 1 << (bit % 8)
	default:
		return fmt.Errorf("store: unknown tear mode %d", int(mode))
	}
	return os.WriteFile(path, buf, 0o644)
}

// lastFrame walks the frame chain and returns the offset and length of
// the final well-formed frame (0,0 when the file holds none). It stops
// at a zero header, where the preallocated tail starts; trailing damage
// from an earlier mangle is ignored — walking stops where the chain
// breaks, same as recovery.
func lastFrame(buf []byte) (start, length int) {
	off := 0
	for {
		if len(buf)-off < frameHeader {
			return start, length
		}
		n := binary.BigEndian.Uint32(buf[off:])
		if n == 0 && binary.BigEndian.Uint32(buf[off+4:]) == 0 {
			return start, length
		}
		if n > maxFramePayload || uint64(len(buf)-off-frameHeader) < uint64(n) {
			return start, length
		}
		start, length = off, frameHeader+int(n)
		off += length
	}
}
