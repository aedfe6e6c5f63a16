package com

import (
	"testing"
	"testing/quick"
)

func speedPdu() *IPdu {
	return &IPdu{
		Name: "PduChassis1", Length: 8,
		Signals: []Signal{
			{Name: "wheelSpeed", StartBit: 0, Bits: 16, Scale: 0.01},           // 0..655.35
			{Name: "brakePressed", StartBit: 16, Bits: 1},                      // flag
			{Name: "temp", StartBit: 17, Bits: 8, Scale: 0.5, ZeroOffset: -40}, // -40..87.5
		},
	}
}

func TestPduValidate(t *testing.T) {
	if err := speedPdu().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := speedPdu()
	bad.Signals[1].StartBit = 10 // overlaps wheelSpeed
	if bad.Validate() == nil {
		t.Fatal("overlapping signals accepted")
	}
	bad = speedPdu()
	bad.Signals[0].Bits = 70
	if bad.Validate() == nil {
		t.Fatal("65+ bit signal accepted")
	}
	bad = speedPdu()
	bad.Signals[2].StartBit = 60 // 60+8 > 64
	if bad.Validate() == nil {
		t.Fatal("signal past payload accepted")
	}
	bad = speedPdu()
	bad.Signals[2].Name = "wheelSpeed"
	if bad.Validate() == nil {
		t.Fatal("duplicate signal name accepted")
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	pdu := speedPdu()
	in := map[string]float64{"wheelSpeed": 123.45, "brakePressed": 1, "temp": 21.5}
	payload := pdu.Pack(in)
	out, err := pdu.Unpack(payload)
	if err != nil {
		t.Fatal(err)
	}
	if out["wheelSpeed"] != 123.45 {
		t.Errorf("wheelSpeed = %v, want 123.45", out["wheelSpeed"])
	}
	if out["brakePressed"] != 1 {
		t.Errorf("brakePressed = %v, want 1", out["brakePressed"])
	}
	if out["temp"] != 21.5 {
		t.Errorf("temp = %v, want 21.5", out["temp"])
	}
}

func TestPackSaturates(t *testing.T) {
	pdu := speedPdu()
	out, err := pdu.Unpack(pdu.Pack(map[string]float64{"wheelSpeed": 1e9, "temp": -300}))
	if err != nil {
		t.Fatal(err)
	}
	if out["wheelSpeed"] != 655.35 {
		t.Errorf("over-range wheelSpeed = %v, want saturation at 655.35", out["wheelSpeed"])
	}
	if out["temp"] != -40 {
		t.Errorf("under-range temp = %v, want saturation at -40", out["temp"])
	}
}

func TestUnpackShortPayload(t *testing.T) {
	if _, err := speedPdu().Unpack([]byte{1, 2}); err == nil {
		t.Fatal("short payload accepted")
	}
}

func TestPackMissingSignalIsZeroRaw(t *testing.T) {
	pdu := speedPdu()
	out, err := pdu.Unpack(pdu.Pack(nil))
	if err != nil {
		t.Fatal(err)
	}
	if out["temp"] != -40 { // raw 0 -> phys -40
		t.Errorf("missing temp unpacked to %v, want -40 (raw zero)", out["temp"])
	}
}

func TestBitPackingQuick(t *testing.T) {
	// Round-trip property across arbitrary aligned layouts.
	f := func(a uint16, b uint8, flag bool) bool {
		pdu := &IPdu{Name: "p", Length: 5, Signals: []Signal{
			{Name: "a", StartBit: 3, Bits: 16},
			{Name: "b", StartBit: 19, Bits: 8},
			{Name: "f", StartBit: 27, Bits: 1},
		}}
		if pdu.Validate() != nil {
			return false
		}
		fv := 0.0
		if flag {
			fv = 1
		}
		out, err := pdu.Unpack(pdu.Pack(map[string]float64{"a": float64(a), "b": float64(b), "f": fv}))
		if err != nil {
			return false
		}
		return out["a"] == float64(a) && out["b"] == float64(b) && out["f"] == fv
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMotorolaRoundTrip(t *testing.T) {
	// Classic DBC Motorola example: 16-bit signal with MSB at bit 7
	// occupies byte0 (bits 7..0) then byte1 (bits 7..0).
	pdu := &IPdu{Name: "mot", Length: 4, Signals: []Signal{
		{Name: "a", StartBit: 7, Bits: 16, BigEndian: true},
		{Name: "b", StartBit: 23, Bits: 8, BigEndian: true},
	}}
	if err := pdu.Validate(); err != nil {
		t.Fatal(err)
	}
	payload := pdu.Pack(map[string]float64{"a": 0xABCD, "b": 0x5A})
	// Big-endian layout: byte0 = 0xAB, byte1 = 0xCD, byte2 = 0x5A.
	if payload[0] != 0xAB || payload[1] != 0xCD || payload[2] != 0x5A {
		t.Fatalf("motorola layout wrong: % X", payload)
	}
	out, err := pdu.Unpack(payload)
	if err != nil {
		t.Fatal(err)
	}
	if out["a"] != 0xABCD || out["b"] != 0x5A {
		t.Fatalf("round trip wrong: %v", out)
	}
}

func TestMixedEndiannessOverlapDetected(t *testing.T) {
	pdu := &IPdu{Name: "mix", Length: 2, Signals: []Signal{
		{Name: "intel", StartBit: 0, Bits: 8},
		{Name: "mot", StartBit: 15, Bits: 12, BigEndian: true}, // walks into byte 0
	}}
	if pdu.Validate() == nil {
		t.Fatal("cross-endian overlap accepted")
	}
}

func TestMotorolaOutOfPayloadDetected(t *testing.T) {
	pdu := &IPdu{Name: "bad", Length: 1, Signals: []Signal{
		{Name: "x", StartBit: 3, Bits: 8, BigEndian: true}, // runs past bit 0 into byte 1 (absent)
	}}
	if pdu.Validate() == nil {
		t.Fatal("motorola overflow accepted")
	}
}

func TestIntelMotorolaQuick(t *testing.T) {
	f := func(v uint16, big bool) bool {
		start := 0
		if big {
			start = 7
		}
		pdu := &IPdu{Name: "q", Length: 2, Signals: []Signal{
			{Name: "v", StartBit: start, Bits: 16, BigEndian: big},
		}}
		if pdu.Validate() != nil {
			return false
		}
		out, err := pdu.Unpack(pdu.Pack(map[string]float64{"v": float64(v)}))
		return err == nil && out["v"] == float64(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
