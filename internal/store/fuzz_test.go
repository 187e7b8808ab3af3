package store

import (
	"bytes"
	"testing"

	"github.com/sabre-geo/sabre/internal/alarm"
	"github.com/sabre-geo/sabre/internal/geom"
	"github.com/sabre-geo/sabre/internal/wire"
)

// FuzzWALDecode exercises the WAL scan + record decode path against
// arbitrary bytes, mirroring internal/wire's FuzzDecode: scanning must
// never panic, the reported clean offset must cover exactly the accepted
// frames, and every accepted record must re-encode byte-identically.
// Each input also gets a run of zeros appended, as the preallocated
// tail of a WAL file would follow it.
func FuzzWALDecode(f *testing.F) {
	seeds := []Record{
		InstallRec{Alarm: alarm.Alarm{
			ID: 1, Scope: alarm.Public, Owner: 2, Region: geom.R(0, 0, 10, 10),
			Topic: "traffic/85N", Subscribers: []alarm.UserID{3, 4},
		}},
		RemoveRec{ID: 9},
		RegisterRec{User: 5, Strategy: wire.StrategyMWPSR, MaxHeight: 6},
		HelloRec{User: 6, Token: 0xFEEDC0FFEE, Strategy: wire.StrategySafePeriod},
		FiredRec{User: 7, Alarms: []uint64{1, 2, 3}},
		FiredAckRec{User: 7, Alarms: nil},
		ExpireRec{User: 8},
		EpochRec{Epoch: 3},
	}
	var multi []byte
	for _, rec := range seeds {
		frame := Frame(EncodeRecord(rec))
		f.Add(frame, uint16(0))
		multi = append(multi, frame...)
	}
	f.Add(multi, uint16(0))                 // several frames back to back
	f.Add(multi[:len(multi)-3], uint16(0))  // torn final frame
	f.Add(multi[:len(multi)-11], uint16(0)) // torn into the previous frame's payload
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0}, uint16(0))             // zero header: the tail starts at 0
	f.Add([]byte{0, 0, 0, 5, 0, 0, 0, 0}, uint16(0))             // claims 5 bytes, has none
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}, uint16(0)) // length past the 1 MiB cap
	f.Add([]byte{0, 16, 0, 0, 0, 0, 0, 0}, uint16(0))            // max-count claim, empty body
	flipped := append([]byte(nil), multi...)
	flipped[len(flipped)/2] ^= 0x40 // bit flip mid-log
	f.Add(flipped, uint16(0))
	// The preallocated tail: a clean log plus zeros, a torn frame plus
	// zeros, and a zero header followed by junk (damage, not tail).
	f.Add(append(append([]byte(nil), multi...), make([]byte, 300)...), uint16(64))
	f.Add(append(append([]byte(nil), multi[:len(multi)-3]...), make([]byte, 40)...), uint16(7))
	f.Add(append(append(append([]byte(nil), multi...), make([]byte, 12)...), 0xAB, 0xCD), uint16(0))

	f.Fuzz(func(t *testing.T, data []byte, zeros uint16) {
		payloads, clean, reason := ScanFrames(data)
		if clean < 0 || clean > len(data) {
			t.Fatalf("clean offset %d out of range [0,%d]", clean, len(data))
		}
		// The clean prefix must re-scan to the same payloads (truncation
		// repair is stable).
		again, clean2, reason2 := ScanFrames(data[:clean])
		if clean2 != clean || reason2 != "" || len(again) != len(payloads) {
			t.Fatalf("re-scan of clean prefix: clean=%d reason=%q frames=%d, want %d/%q/%d",
				clean2, reason2, len(again), clean, "", len(payloads))
		}
		// Zeros after a log are its preallocated tail: appended to the
		// clean prefix, or to any input that scanned clean, they change
		// neither the payloads nor the log end. After damage they can
		// only complete a torn frame whose missing bytes were zeros, so
		// the payloads already accepted stay a prefix.
		padded := append(append([]byte(nil), data...), make([]byte, zeros)...)
		grown, cleanZ, _ := ScanFrames(padded)
		if reason == "" && (cleanZ != clean || !samePayloads(grown, payloads)) {
			t.Fatalf("%d zeros after a clean log moved it: %d frames to %d, end %d to %d",
				zeros, len(payloads), len(grown), clean, cleanZ)
		}
		if cleanZ < clean || len(grown) < len(payloads) || !samePayloads(grown[:len(payloads)], payloads) {
			t.Fatalf("%d zeros after damage lost accepted frames: %d frames to %d, end %d to %d",
				zeros, len(payloads), len(grown), clean, cleanZ)
		}
		padded = append(append([]byte(nil), data[:clean]...), make([]byte, zeros)...)
		if again, cleanP, reasonP := ScanFrames(padded); cleanP != clean || reasonP != "" || !samePayloads(again, payloads) {
			t.Fatalf("%d zeros after the clean prefix: end %d (reason %q), want %d", zeros, cleanP, reasonP, clean)
		}
		for _, p := range payloads {
			rec, err := DecodeRecord(p)
			if err != nil {
				continue // CRC-valid junk may still fail record decode
			}
			re := EncodeRecord(rec)
			if !bytes.Equal(re, p) {
				t.Fatalf("re-encode differs: % x vs % x", re, p)
			}
		}
	})
}

func samePayloads(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}
