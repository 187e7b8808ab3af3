package bitio

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// pack is the reference packing: bit i of bits lands in byte i/8 at
// position 7-i%8 (MSB first), and the final byte is zero-padded.
func pack(bits []bool) []byte {
	out := make([]byte, (len(bits)+7)/8)
	for i, b := range bits {
		if b {
			out[i/8] |= 1 << (7 - i%8)
		}
	}
	return out
}

func TestWriteReadSingleBits(t *testing.T) {
	w := NewWriter(16)
	pattern := []bool{true, false, true, true, false, false, true, false, true, true}
	for _, b := range pattern {
		w.WriteBit(b)
	}
	if w.Len() != len(pattern) {
		t.Fatalf("Len = %d, want %d", w.Len(), len(pattern))
	}
	if got := w.Bytes(); !slices.Equal(got, []byte{0b10110010, 0b11000000}) {
		t.Errorf("Bytes = %08b, want [10110010 11000000]", got)
	}
}

func TestWriteBitsMSBFirst(t *testing.T) {
	w := NewWriter(8)
	w.WriteBits(0b1011, 4)
	w.WriteBits(0b0110, 4)
	got := w.Bytes()
	if len(got) != 1 || got[0] != 0b10110110 || w.Len() != 8 {
		t.Fatalf("Bytes = %08b Len = %d, want [10110110] and 8", got, w.Len())
	}
}

func TestWriterReset(t *testing.T) {
	w := NewWriter(0)
	w.WriteBits(0xFF, 8)
	w.Reset()
	if w.Len() != 0 || len(w.Bytes()) != 0 {
		t.Error("Reset did not clear writer")
	}
	w.WriteBit(true)
	if w.Bytes()[0] != 0x80 {
		t.Errorf("after reset, first bit wrong: %08b", w.Bytes()[0])
	}
}

func TestString(t *testing.T) {
	w := NewWriter(0)
	w.WriteBits(0b0000011010, 10)
	if got := String(w.Bytes(), 10); got != "0000011010" {
		t.Errorf("String = %q, want 0000011010", got)
	}
	// Requesting more bits than available truncates.
	if got := String([]byte{0xF0}, 20); got != "11110000" {
		t.Errorf("String = %q", got)
	}
}

// Property: any random bit sequence written one bit at a time packs
// exactly as the reference packing does.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		bits := make([]bool, int(n%2048))
		w := NewWriter(len(bits))
		for i := range bits {
			bits[i] = rng.Intn(2) == 1
			w.WriteBit(bits[i])
		}
		return w.Len() == len(bits) && slices.Equal(w.Bytes(), pack(bits))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: WriteBits(v, n) writes the low n bits of v MSB-first — the
// first ceil(n/8) bytes of v<<(64-n) in big-endian order.
func TestQuickWriteBitsRoundTrip(t *testing.T) {
	f := func(v uint64, width uint8) bool {
		n := int(width % 65)
		w := NewWriter(n)
		w.WriteBits(v, n)
		var want [8]byte
		if n > 0 {
			binary.BigEndian.PutUint64(want[:], v<<(64-n))
		}
		return w.Len() == n && slices.Equal(w.Bytes(), want[:(n+7)/8])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
