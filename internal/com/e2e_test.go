package com

import (
	"testing"

	"autorte/internal/e2eprot"
)

// protectedPdu is speedPdu with a P01 protection header in the two
// trailing payload bytes (signals occupy bits 0..24).
func protectedPdu() *IPdu {
	p := speedPdu()
	p.E2E = &e2eprot.Config{Profile: e2eprot.P01, DataID: 0x0C4A, Offset: 6}
	return p
}

func TestValidateReservesE2EHeader(t *testing.T) {
	if err := protectedPdu().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := protectedPdu()
	bad.Signals[2].StartBit = 44 // 44+8 runs into the header at bit 48
	if err := bad.Validate(); err == nil {
		t.Fatal("signal over E2E header accepted")
	}
	bad = protectedPdu()
	bad.E2E.Offset = 7 // 2-byte P01 header does not fit at byte 7 of 8
	if bad.Validate() == nil {
		t.Fatal("E2E header past payload accepted")
	}
	bad = protectedPdu()
	bad.E2E.MaxDeltaCounter = 20 // outside the P01 0..14 counter range
	if bad.Validate() == nil {
		t.Fatal("invalid E2E counter config accepted")
	}
}
