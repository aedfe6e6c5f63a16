package e2eprot

import (
	"testing"

	"autorte/internal/sim"
)

// refCRC8 and refCRC16 are the bitwise CRC definitions the lookup tables
// are built from; refComputeCRC is computeCRC over them.
func refCRC8(init uint8, data []byte) uint8 {
	crc := init
	for _, b := range data {
		crc ^= b
		for i := 0; i < 8; i++ {
			if crc&0x80 != 0 {
				crc = crc<<1 ^ 0x1D
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}

func refCRC16(init uint16, data []byte) uint16 {
	crc := init
	for _, b := range data {
		crc ^= uint16(b) << 8
		for i := 0; i < 8; i++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}

func (c Config) refComputeCRC(payload []byte) uint16 {
	id := []byte{byte(c.DataID >> 8), byte(c.DataID)}
	crcLen := c.Profile.HeaderLen() - 1
	masked := append([]byte(nil), payload...)
	for i := c.Offset; i < c.Offset+crcLen && i < len(masked); i++ {
		masked[i] = 0
	}
	if c.Profile == P01 {
		return uint16(refCRC8(refCRC8(0xFF, id), masked) ^ 0xFF)
	}
	return refCRC16(refCRC16(0xFFFF, id), masked)
}

// TestCRCCheckValues pins the catalogue check values over "123456789":
// CRC-8/SAE-J1850 0x4B (with the final XOR) and CRC-16/CCITT-FALSE
// 0x29B1, for both the tables and the bitwise reference.
func TestCRCCheckValues(t *testing.T) {
	check := []byte("123456789")
	crc8 := uint8(0xFF)
	crc16 := uint16(0xFFFF)
	for _, b := range check {
		crc8 = crc8Table[crc8^b]
		crc16 = crc16<<8 ^ crc16Table[byte(crc16>>8)^b]
	}
	if got := crc8 ^ 0xFF; got != 0x4B {
		t.Errorf("table CRC-8/SAE-J1850 = %#02x, want 0x4b", got)
	}
	if got := refCRC8(0xFF, check) ^ 0xFF; got != 0x4B {
		t.Errorf("bitwise CRC-8/SAE-J1850 = %#02x, want 0x4b", got)
	}
	if crc16 != 0x29B1 {
		t.Errorf("table CRC-16/CCITT-FALSE = %#04x, want 0x29b1", crc16)
	}
	if got := refCRC16(0xFFFF, check); got != 0x29B1 {
		t.Errorf("bitwise CRC-16/CCITT-FALSE = %#04x, want 0x29b1", got)
	}
}

// TestComputeCRCMatchesBitwise holds the table-driven computeCRC to the
// bitwise reference over random payloads, DataIDs and header offsets.
func TestComputeCRCMatchesBitwise(t *testing.T) {
	r := sim.NewRand(11)
	for i := 0; i < 2000; i++ {
		payload := make([]byte, 3+r.Intn(30))
		for j := range payload {
			payload[j] = byte(r.Uint64())
		}
		for _, p := range []ProfileKind{P01, P05} {
			c := Config{Profile: p, DataID: uint16(r.Uint64()), Offset: r.Intn(len(payload) - p.HeaderLen() + 1)}
			if got, want := c.computeCRC(payload), c.refComputeCRC(payload); got != want {
				t.Fatalf("%+v over %x: computeCRC = %#x, bitwise reference %#x", c, payload, got, want)
			}
		}
	}
}

// BenchmarkComputeCRC measures one protection CRC over an 8-byte PDU.
func BenchmarkComputeCRC(b *testing.B) {
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	for _, p := range []ProfileKind{P01, P05} {
		c := Config{Profile: p, DataID: 0x1234, Offset: 4}
		b.Run(p.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.computeCRC(payload)
			}
		})
	}
}
