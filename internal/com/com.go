// Package com implements the signal layer of an AUTOSAR-COM-like
// stack: application signals are packed bit-exactly into I-PDUs (Intel
// or Motorola byte order), optionally with an E2E protection header
// reserved in the payload. Transmission, gatewaying and E2E
// verification belong to package rte: each bus segment of a route packs
// its own PDU, and a route's Via segments are the gateway (the
// "Gateway" box in the paper's Figure 1).
package com

import (
	"fmt"
	"math"

	"autorte/internal/e2eprot"
)

// Signal describes one application value inside an I-PDU.
type Signal struct {
	Name string
	// StartBit is the bit offset inside the PDU payload. For Intel
	// (little-endian) signals it is the LSB position and bits ascend; for
	// Motorola (big-endian) signals it is the MSB position and bits walk
	// down within each byte, continuing at bit 7 of the next byte — the
	// classic DBC convention.
	StartBit int
	// Bits is the raw width (1..64).
	Bits int
	// BigEndian selects Motorola byte order (Intel when false).
	BigEndian bool
	// Scale and ZeroOffset convert physical to raw: raw = (phys - ZeroOffset) / Scale.
	// Scale 0 defaults to 1.
	Scale      float64
	ZeroOffset float64
}

func (s *Signal) scale() float64 {
	if s.Scale == 0 {
		return 1
	}
	return s.Scale
}

// ToRaw quantizes a physical value into the signal's raw integer range,
// saturating at the representable bounds. NaN maps to raw 0.
func (s *Signal) ToRaw(phys float64) uint64 {
	raw := math.Round((phys - s.ZeroOffset) / s.scale())
	if !(raw > 0) {
		return 0
	}
	// Above 53 bits float64(max) rounds up to 2^Bits, which does not
	// convert; compare against it and return the integer bound instead.
	max := uint64(1)<<uint(s.Bits) - 1
	if raw >= float64(max) {
		return max
	}
	return uint64(raw)
}

// FromRaw converts a raw integer back to the physical value.
func (s *Signal) FromRaw(raw uint64) float64 {
	return float64(raw)*s.scale() + s.ZeroOffset
}

// IPdu is an interaction-layer PDU: a byte payload carrying packed
// signals.
type IPdu struct {
	Name    string
	Length  int // payload bytes (1..8 for classic CAN, larger for FlexRay)
	Signals []Signal
	// E2E, when non-nil, makes this a protected PDU: the sender stamps
	// an E2E protection header (CRC + sequence counter) into the payload
	// bytes the config reserves, and the receiver checks it. Validate
	// rejects signals laid out over the reserved header.
	E2E *e2eprot.Config
}

// Validate checks the PDU layout: signal fields inside the payload and
// non-overlapping.
func (p *IPdu) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("com: PDU with empty name")
	}
	if p.Length < 1 || p.Length > 254 {
		return fmt.Errorf("com: PDU %s: length %d outside 1..254", p.Name, p.Length)
	}
	used := make([]bool, p.Length*8)
	e2eFrom, e2eTo := -1, -1
	if p.E2E != nil {
		if err := p.E2E.Validate(p.Length); err != nil {
			return fmt.Errorf("com: PDU %s: %w", p.Name, err)
		}
		e2eFrom = p.E2E.Offset * 8
		e2eTo = (p.E2E.Offset + p.E2E.Profile.HeaderLen()) * 8
	}
	seen := map[string]bool{}
	for i := range p.Signals {
		s := &p.Signals[i]
		if s.Name == "" {
			return fmt.Errorf("com: PDU %s: signal with empty name", p.Name)
		}
		if seen[s.Name] {
			return fmt.Errorf("com: PDU %s: duplicate signal %s", p.Name, s.Name)
		}
		seen[s.Name] = true
		if s.Bits < 1 || s.Bits > 64 {
			return fmt.Errorf("com: PDU %s signal %s: width %d outside 1..64", p.Name, s.Name, s.Bits)
		}
		b, err := s.firstBit(len(used))
		if err != nil {
			return fmt.Errorf("com: PDU %s signal %s: %w", p.Name, s.Name, err)
		}
		for j := 0; j < s.Bits; j, b = j+1, s.nextBit(b) {
			if b >= e2eFrom && b < e2eTo {
				return fmt.Errorf("com: PDU %s signal %s: overlaps the E2E protection header at bit %d", p.Name, s.Name, b)
			}
			if used[b] {
				return fmt.Errorf("com: PDU %s signal %s: overlaps another signal at bit %d", p.Name, s.Name, b)
			}
			used[b] = true
		}
	}
	return nil
}

// Signal returns the named signal, or nil.
func (p *IPdu) Signal(name string) *Signal {
	for i := range p.Signals {
		if p.Signals[i].Name == name {
			return &p.Signals[i]
		}
	}
	return nil
}

// firstBit returns the payload bit of the signal's value MSB, after
// checking that every bit of the signal lies inside a payload of
// payloadBits (a whole number of bytes). Intel signals ascend from
// StartBit (LSB); Motorola signals walk down from StartBit (MSB) per the
// DBC convention, continuing at bit 7 of the next byte. nextBit steps
// from one bit to the next lower-order one.
func (s *Signal) firstBit(payloadBits int) (int, error) {
	if !s.BigEndian {
		if s.StartBit < 0 || s.StartBit+s.Bits > payloadBits {
			return 0, fmt.Errorf("bits [%d,%d) outside payload", s.StartBit, s.StartBit+s.Bits)
		}
		return s.StartBit + s.Bits - 1, nil
	}
	if s.StartBit < 0 || s.StartBit >= payloadBits {
		return 0, fmt.Errorf("motorola bit %d outside payload", s.StartBit)
	}
	// The walk takes StartBit%8+1 bits from the first byte, then whole
	// bytes entered at bit 7; it leaves the payload at the first bit of
	// the byte past the end.
	if rest := s.Bits - (s.StartBit%8 + 1); rest > 0 && s.StartBit/8+(rest+7)/8 >= payloadBits/8 {
		return 0, fmt.Errorf("motorola bit %d outside payload", payloadBits+7)
	}
	return s.StartBit, nil
}

func (s *Signal) nextBit(pos int) int {
	if s.BigEndian && pos%8 == 0 {
		return pos + 15 // wrap to bit 7 of the next byte
	}
	return pos - 1
}

// Pack serializes physical signal values into a payload. Missing signals
// pack as zero raw value.
func (p *IPdu) Pack(values map[string]float64) []byte {
	payload := make([]byte, p.Length)
	for i := range p.Signals {
		s := &p.Signals[i]
		pos, err := s.firstBit(p.Length * 8)
		if err != nil {
			continue
		}
		v, ok := values[s.Name]
		if !ok {
			continue
		}
		raw := s.ToRaw(v)
		for j := s.Bits - 1; j >= 0; j-- {
			if raw>>uint(j)&1 != 0 {
				payload[pos/8] |= 1 << uint(pos%8)
			}
			pos = s.nextBit(pos)
		}
	}
	return payload
}

// Unpack deserializes a payload into physical values. Short payloads
// return an error (a communication fault the error-handling layer reports).
func (p *IPdu) Unpack(payload []byte) (map[string]float64, error) {
	if err := p.checkLength(payload); err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(p.Signals))
	for i := range p.Signals {
		v, err := p.decode(&p.Signals[i], payload)
		if err != nil {
			return nil, err
		}
		out[p.Signals[i].Name] = v
	}
	return out, nil
}

// UnpackSignal is Unpack for a receiver that reads one signal: it decodes
// only the named signal and builds no map. An unknown name reads as zero,
// like a missing map key.
func (p *IPdu) UnpackSignal(payload []byte, name string) (float64, error) {
	if err := p.checkLength(payload); err != nil {
		return 0, err
	}
	s := p.Signal(name)
	if s == nil {
		return 0, nil
	}
	return p.decode(s, payload)
}

func (p *IPdu) checkLength(payload []byte) error {
	if len(payload) < p.Length {
		return fmt.Errorf("com: PDU %s: payload %d bytes, want %d", p.Name, len(payload), p.Length)
	}
	return nil
}

// decode reads one signal's physical value from a payload of at least
// p.Length bytes.
func (p *IPdu) decode(s *Signal, payload []byte) (float64, error) {
	pos, err := s.firstBit(p.Length * 8)
	if err != nil {
		return 0, fmt.Errorf("com: PDU %s signal %s: %w", p.Name, s.Name, err)
	}
	var raw uint64
	for j := 0; j < s.Bits; j++ {
		raw <<= 1
		if payload[pos/8]&(1<<uint(pos%8)) != 0 {
			raw |= 1
		}
		pos = s.nextBit(pos)
	}
	return s.FromRaw(raw), nil
}
