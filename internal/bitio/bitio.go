// Package bitio provides a compact bit-level writer.
//
// It backs the bitmap-encoded safe region representations (GBSR/PBSR), where
// safe regions are serialized as raster-scan bit strings (paper §4) and
// every downstream byte counts against the bandwidth budget the paper
// measures. Decoding reads the bits in place (pyramid.Region.Decode).
//
// Bits are packed MSB-first within each byte, matching the raster-scan
// reading order used in the paper's figures.
package bitio

// Writer accumulates bits into a byte slice. The zero value is ready to use.
type Writer struct {
	buf  []byte
	nBit int // total bits written
}

// NewWriter returns a Writer with capacity preallocated for sizeHint bits.
func NewWriter(sizeHint int) *Writer {
	if sizeHint < 0 {
		sizeHint = 0
	}
	return &Writer{buf: make([]byte, 0, (sizeHint+7)/8)}
}

// WriteBit appends a single bit (true = 1).
func (w *Writer) WriteBit(bit bool) {
	if w.nBit%8 == 0 {
		w.buf = append(w.buf, 0)
	}
	if bit {
		w.buf[w.nBit/8] |= 1 << (7 - uint(w.nBit%8))
	}
	w.nBit++
}

// WriteBits appends the low n bits of v, most significant first. n must be
// in [0, 64].
func (w *Writer) WriteBits(v uint64, n int) {
	for i := n - 1; i >= 0; i-- {
		w.WriteBit(v>>(uint(i))&1 == 1)
	}
}

// Len returns the number of bits written so far.
func (w *Writer) Len() int { return w.nBit }

// Bytes returns the packed bit string. The final byte is zero-padded. The
// returned slice aliases the writer's buffer; callers must not keep writing
// through w while holding it unless they copy first.
func (w *Writer) Bytes() []byte { return w.buf }

// Reset clears the writer for reuse, retaining the allocated buffer.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.nBit = 0
}

// String renders the first n bits of buf as a "0101…" string, handy in
// tests and debug output mirroring the paper's bitmap figures.
func String(buf []byte, n int) string {
	out := make([]byte, 0, n)
	for i := 0; i < n && i < len(buf)*8; i++ {
		if buf[i/8]>>(7-uint(i%8))&1 == 1 {
			out = append(out, '1')
		} else {
			out = append(out, '0')
		}
	}
	return string(out)
}
