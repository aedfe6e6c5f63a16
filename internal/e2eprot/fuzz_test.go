package e2eprot

import (
	"testing"

	"autorte/internal/sim"
)

// FuzzReceiverCheck drives the receiver's parsing boundary with the
// profile, header offset, DataID, counter tolerance, sender counter and
// payload bytes the fuzzer picks:
//   - Check never panics, whatever the bytes, the configuration or the
//     payload length;
//   - a freshly protected payload checks OK, both on a fresh receiver and
//     on one that accepted the sender's previous payload;
//   - flipping bits of any one byte of that payload never checks OK.
func FuzzReceiverCheck(f *testing.F) {
	f.Add(uint8(0), int8(0), uint16(0x1234), uint8(0), uint8(0), []byte{0, 0, 0xAB, 0xCD}, uint16(2), uint8(1))
	f.Add(uint8(1), int8(2), uint16(0xBEEF), uint8(2), uint8(200), []byte{1, 2, 0, 0, 0, 9}, uint16(3), uint8(0x80))
	f.Add(uint8(0), int8(-1), uint16(7), uint8(255), uint8(14), []byte{0xFF}, uint16(0), uint8(0))
	f.Add(uint8(2), int8(0), uint16(0), uint8(0), uint8(0), []byte{}, uint16(0), uint8(0))
	f.Fuzz(func(t *testing.T, profile uint8, offset int8, dataID uint16, maxDelta, sent uint8, payload []byte, pos uint16, flip uint8) {
		cfg := Config{
			Profile: ProfileKind(profile % 3), Offset: int(offset), DataID: dataID,
			MaxDeltaCounter: maxDelta, Timeout: sim.MS(10),
		}
		// Raw bytes, and nothing, at the receiving end: a verdict, never
		// a panic.
		rx := NewReceiver(cfg)
		rx.Check(sim.MS(1), payload)
		rx.Check(sim.MS(100), nil)
		rx.State()

		tx := NewSender(cfg)
		frame := append([]byte(nil), payload...)
		if tx.Protect(frame) != nil {
			return // the configuration does not fit the payload
		}
		for i := 0; i < int(sent); i++ {
			if err := tx.Protect(frame); err != nil {
				t.Fatalf("protect %d: %v", i+1, err)
			}
		}
		prev := append([]byte(nil), frame...)
		if err := tx.Protect(frame); err != nil {
			t.Fatal(err)
		}
		if st := NewReceiver(cfg).Check(0, frame); st != StatusOK {
			t.Fatalf("fresh receiver: protected payload checks %v", st)
		}
		inSeq := NewReceiver(cfg)
		if st := inSeq.Check(0, prev); st != StatusOK {
			t.Fatalf("previous payload checks %v", st)
		}
		if st := inSeq.Check(sim.MS(1), frame); st != StatusOK {
			t.Fatalf("next payload in sequence checks %v", st)
		}

		bad := append([]byte(nil), frame...)
		i := int(pos) % len(bad)
		mask := flip
		if mask == 0 {
			mask = 0xFF
		}
		bad[i] ^= mask
		if st := NewReceiver(cfg).Check(0, bad); st == StatusOK {
			t.Fatalf("byte %d ^ %#x of %x checks OK", i, mask, frame)
		}
	})
}
