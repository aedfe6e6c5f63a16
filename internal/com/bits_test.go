package com

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

// refBitPositions is the reference bit walk: it lists the payload bit
// indices the signal occupies, in MSB-to-LSB value order. FuzzIPdu holds
// firstBit/nextBit to it.
func (s *Signal) refBitPositions(payloadBits int) ([]int, error) {
	out := make([]int, s.Bits)
	if !s.BigEndian {
		if s.StartBit < 0 || s.StartBit+s.Bits > payloadBits {
			return nil, fmt.Errorf("bits [%d,%d) outside payload", s.StartBit, s.StartBit+s.Bits)
		}
		for i := 0; i < s.Bits; i++ {
			out[i] = s.StartBit + s.Bits - 1 - i // MSB first
		}
		return out, nil
	}
	pos := s.StartBit
	for i := 0; i < s.Bits; i++ {
		if pos < 0 || pos >= payloadBits {
			return nil, fmt.Errorf("motorola bit %d outside payload", pos)
		}
		out[i] = pos
		if pos%8 == 0 {
			pos += 15 // wrap to bit 7 of the next byte
		} else {
			pos--
		}
	}
	return out, nil
}

// walk collects the in-place bit walk of a signal, for comparison with
// the reference.
func (s *Signal) walk(payloadBits int) ([]int, error) {
	pos, err := s.firstBit(payloadBits)
	if err != nil {
		return nil, err
	}
	out := make([]int, s.Bits)
	for i := range out {
		out[i] = pos
		pos = s.nextBit(pos)
	}
	return out, nil
}

// refPack and refUnpack are Pack and Unpack over the reference walk.
func (p *IPdu) refPack(values map[string]float64) []byte {
	payload := make([]byte, p.Length)
	for i := range p.Signals {
		s := &p.Signals[i]
		raw := uint64(0)
		if v, ok := values[s.Name]; ok {
			raw = s.ToRaw(v)
		}
		positions, _ := s.refBitPositions(p.Length * 8)
		for j, pos := range positions {
			if (raw>>uint(s.Bits-1-j))&1 == 1 {
				payload[pos/8] |= 1 << uint(pos%8)
			}
		}
	}
	return payload
}

func (p *IPdu) refUnpack(payload []byte) (map[string]float64, error) {
	if len(payload) < p.Length {
		return nil, fmt.Errorf("com: PDU %s: payload %d bytes, want %d", p.Name, len(payload), p.Length)
	}
	out := make(map[string]float64, len(p.Signals))
	for i := range p.Signals {
		s := &p.Signals[i]
		positions, err := s.refBitPositions(p.Length * 8)
		if err != nil {
			return nil, fmt.Errorf("com: PDU %s signal %s: %w", p.Name, s.Name, err)
		}
		var raw uint64
		for _, pos := range positions {
			raw <<= 1
			if payload[pos/8]&(1<<uint(pos%8)) != 0 {
				raw |= 1
			}
		}
		out[s.Name] = s.FromRaw(raw)
	}
	return out, nil
}

func TestToRawSaturates(t *testing.T) {
	cases := []struct {
		bits int
		phys float64
		want uint64
	}{
		{8, math.NaN(), 0},
		{8, math.Inf(1), 255},
		{8, math.Inf(-1), 0},
		{8, -3, 0},
		{8, 254.6, 255},
		{8, 1e300, 255},
		{53, math.Inf(1), 1<<53 - 1},
		{60, math.Inf(1), 1<<60 - 1},
		{60, 1 << 60, 1<<60 - 1},
		{60, 1 << 59, 1 << 59},
		{64, math.NaN(), 0},
		{64, math.Inf(1), math.MaxUint64},
		{64, 1e30, math.MaxUint64},
		{64, 1 << 63, 1 << 63},
		{64, -1e30, 0},
	}
	for _, c := range cases {
		s := Signal{Bits: c.bits}
		if got := s.ToRaw(c.phys); got != c.want {
			t.Errorf("Signal{Bits: %d}.ToRaw(%v) = %d, want %d", c.bits, c.phys, got, c.want)
		}
	}
	nan := &IPdu{Name: "p", Length: 8, Signals: []Signal{{Name: "v", Bits: 64}}}
	out, err := nan.Unpack(nan.Pack(map[string]float64{"v": math.NaN()}))
	if err != nil || out["v"] != 0 {
		t.Fatalf("64-bit NaN round trip = %v, %v; want 0", out["v"], err)
	}
}

// fuzzBytes reads fuzz input a byte at a time, yielding zeros once the
// input runs out.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// FuzzIPdu builds random Intel/Motorola layouts (widths 1..64, any start
// bit including ones off the payload, lengths 1..254) and random
// payloads. Validate and Unpack must return errors rather than panic; the
// in-place bit walk, Pack, Unpack and UnpackSignal must equal the
// reference walk; and for valid layouts Unpack(Pack(v)) must equal
// FromRaw(ToRaw(v)).
func FuzzIPdu(f *testing.F) {
	f.Add([]byte{8, 3, 0, 15, 0, 16, 0, 0, 17, 7, 1})
	f.Add([]byte{8, 2, 7, 15, 1, 23, 63, 1, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{1, 1, 7, 7, 1, 255})
	f.Add([]byte{254, 1, 0, 63, 0, 9})
	f.Add([]byte{8, 1, 0, 63, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		length := in.next()%254 + 1
		p := &IPdu{Name: "p", Length: length}
		n := in.next()%4 + 1
		for i := 0; i < n; i++ {
			start := (in.next()<<8|in.next())%(length*8+16) - 8
			p.Signals = append(p.Signals, Signal{
				Name:      fmt.Sprintf("s%d", i),
				StartBit:  start,
				Bits:      in.next()%64 + 1,
				BigEndian: in.next()%2 == 1,
				Scale:     []float64{0, 0.5, 0.01, 3}[in.next()%4],
			})
		}
		valid := p.Validate() == nil
		for i := range p.Signals {
			s := &p.Signals[i]
			got, gotErr := s.walk(length * 8)
			want, wantErr := s.refBitPositions(length * 8)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
				t.Fatalf("%+v: walk = %v, %v; reference %v, %v", *s, got, gotErr, want, wantErr)
			}
		}
		values := map[string]float64{}
		for _, s := range p.Signals {
			values[s.Name] = float64(in.next()<<16|in.next()<<8|in.next()) - 1000
		}
		packed := p.Pack(values)
		if want := p.refPack(values); !reflect.DeepEqual(packed, want) {
			t.Fatalf("Pack = %x, reference %x", packed, want)
		}
		payload := []byte(in)
		got, gotErr := p.Unpack(payload)
		want, wantErr := p.refUnpack(payload)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
			t.Fatalf("Unpack(%x) = %v, %v; reference %v, %v", payload, got, gotErr, want, wantErr)
		}
		for _, s := range p.Signals {
			v, err := p.UnpackSignal(payload, s.Name)
			if (wantErr == nil || len(payload) < length) && (fmt.Sprint(err) != fmt.Sprint(wantErr) || v != want[s.Name]) {
				t.Fatalf("UnpackSignal(%x, %s) = %v, %v; reference %v, %v", payload, s.Name, v, err, want[s.Name], wantErr)
			}
		}
		if !valid {
			return
		}
		out, err := p.Unpack(packed)
		if err != nil {
			t.Fatalf("valid layout: Unpack(Pack) failed: %v", err)
		}
		for _, s := range p.Signals {
			if want := s.FromRaw(s.ToRaw(values[s.Name])); out[s.Name] != want {
				t.Fatalf("signal %+v: Unpack(Pack(%v)) = %v, want %v", s, values[s.Name], out[s.Name], want)
			}
		}
	})
}
