// Package e2eprot implements AUTOSAR-style end-to-end communication
// protection (E2E protection profiles). The paper's §2 demands "a
// consistent error handling model" covering communication errors, yet a
// bus CRC only protects one hop of one medium: corruption inside a
// gateway's RAM, a masqueraded sender, loss, duplication, re-ordering and
// stale data all pass every bus-level check. E2E protection closes that
// gap by wrapping each protected PDU in a small trailer computed at the
// sending runnable and verified at the receiving runnable — the two ends
// of the path, whatever lies in between.
//
// Two profiles are provided, modelled on AUTOSAR's P01 and P05:
//
//   - P01: CRC-8 (SAE J1850) + 4-bit alternating sequence counter
//     (0..14), 2-byte header — sized for short CAN-class PDUs.
//   - P05: CRC-16 (CCITT-FALSE) + 8-bit counter (0..255), 3-byte
//     header — sized for larger FlexRay/Ethernet-class PDUs.
//
// Both bind the channel's DataID into the CRC without transmitting it, so
// a syntactically valid PDU of the wrong stream (masquerade) fails the
// check exactly like corruption does.
//
// The receiver side is a per-check status (Status) plus a window-based
// qualification state machine (SMState) that debounces isolated glitches
// before an application or the platform health monitor acts on the
// channel — the E2E_SM of the AUTOSAR E2E library.
package e2eprot

import (
	"fmt"

	"autorte/internal/sim"
)

// ProfileKind selects the E2E protection profile of a channel.
type ProfileKind uint8

// The implemented profiles.
const (
	// P01 is the CRC-8 + 4-bit-counter profile for short PDUs.
	P01 ProfileKind = iota
	// P05 is the CRC-16 + 8-bit-counter profile for larger PDUs.
	P05
)

func (k ProfileKind) String() string {
	switch k {
	case P01:
		return "P01"
	default:
		return "P05"
	}
}

// HeaderLen returns the number of payload bytes the profile's protection
// header occupies.
func (k ProfileKind) HeaderLen() int {
	if k == P01 {
		return 2 // CRC-8 + counter byte
	}
	return 3 // CRC-16 (2 bytes) + counter byte
}

// counterModulus returns the sequence counter range: P01 wraps 0..14
// (AUTOSAR reserves 0xF), P05 wraps the full byte.
func (k ProfileKind) counterModulus() int {
	if k == P01 {
		return 15
	}
	return 256
}

// Config describes one protected channel: both ends must agree on it.
type Config struct {
	// Profile selects header layout, CRC and counter width.
	Profile ProfileKind
	// DataID identifies the protected stream. It is mixed into the CRC but
	// never transmitted: a payload protected under a different DataID fails
	// verification (masquerade detection).
	DataID uint16
	// Offset is the byte offset of the protection header inside the
	// payload (AUTOSAR P05's configurable offset; P01 supports it too
	// here). Default 0.
	Offset int
	// MaxDeltaCounter is the largest accepted counter jump between two
	// valid receptions: 1 means strictly consecutive, larger values
	// tolerate that many lost PDUs before WrongSequence (default 2).
	MaxDeltaCounter uint8
	// Timeout is the receiver-side staleness bound in virtual time: a
	// Check finding no new data for longer than Timeout reports
	// NotAvailable instead of NoNewData. Zero disables timeout
	// supervision.
	Timeout sim.Duration
	// WindowSize, MinOKForValid and MaxErrorsForValid tune the window
	// qualification state machine (defaults 8, 5, 2).
	WindowSize        int
	MinOKForValid     int
	MaxErrorsForValid int
}

func (c Config) fill() Config {
	if c.MaxDeltaCounter == 0 {
		c.MaxDeltaCounter = 2
	}
	if c.WindowSize == 0 {
		c.WindowSize = 8
	}
	if c.MinOKForValid == 0 {
		c.MinOKForValid = 5
	}
	if c.MaxErrorsForValid == 0 {
		c.MaxErrorsForValid = 2
	}
	return c
}

// Validate checks the configuration against the length of the payload it
// will protect.
func (c Config) Validate(payloadLen int) error {
	cc := c.fill()
	switch c.Profile {
	case P01, P05:
	default:
		return fmt.Errorf("e2eprot: unknown profile %d", c.Profile)
	}
	if c.Offset < 0 || c.Offset+c.Profile.HeaderLen() > payloadLen {
		return fmt.Errorf("e2eprot: %v header at offset %d does not fit a %d-byte payload",
			c.Profile, c.Offset, payloadLen)
	}
	if int(cc.MaxDeltaCounter) >= c.Profile.counterModulus() {
		return fmt.Errorf("e2eprot: MaxDeltaCounter %d outside the %v counter range",
			cc.MaxDeltaCounter, c.Profile)
	}
	if cc.MinOKForValid > cc.WindowSize {
		return fmt.Errorf("e2eprot: MinOKForValid %d exceeds window size %d",
			cc.MinOKForValid, cc.WindowSize)
	}
	return nil
}

// crc8Table and crc16Table are the byte-at-a-time lookup tables of the
// SAE J1850 CRC-8 (poly 0x1D, init 0xFF, xor-out 0xFF) used by AUTOSAR
// profile 1 and of CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF) used by
// AUTOSAR profile 5.
var crc8Table, crc16Table = crcTables()

func crcTables() (t8 [256]uint8, t16 [256]uint16) {
	for i := range t8 {
		c8, c16 := uint8(i), uint16(i)<<8
		for b := 0; b < 8; b++ {
			if c8&0x80 != 0 {
				c8 = c8<<1 ^ 0x1D
			} else {
				c8 <<= 1
			}
			if c16&0x8000 != 0 {
				c16 = c16<<1 ^ 0x1021
			} else {
				c16 <<= 1
			}
		}
		t8[i], t16[i] = c8, c16
	}
	return t8, t16
}

// computeCRC computes the profile CRC over DataID and the payload with
// the CRC field bytes treated as zero (the counter byte is covered).
func (c Config) computeCRC(payload []byte) uint16 {
	id := [2]byte{byte(c.DataID >> 8), byte(c.DataID)}
	from, to := c.Offset, c.Offset+c.Profile.HeaderLen()-1 // trailing byte is the counter
	if c.Profile == P01 {
		crc := uint8(0xFF)
		for _, b := range id {
			crc = crc8Table[crc^b]
		}
		for i, b := range payload {
			if i >= from && i < to {
				b = 0
			}
			crc = crc8Table[crc^b]
		}
		return uint16(crc ^ 0xFF)
	}
	crc := uint16(0xFFFF)
	for _, b := range id {
		crc = crc<<8 ^ crc16Table[byte(crc>>8)^b]
	}
	for i, b := range payload {
		if i >= from && i < to {
			b = 0
		}
		crc = crc<<8 ^ crc16Table[byte(crc>>8)^b]
	}
	return crc
}

// writeHeader stores crc and counter into the payload's header field.
func (c Config) writeHeader(payload []byte, crc uint16, counter uint8) {
	if c.Profile == P01 {
		payload[c.Offset] = byte(crc)
		payload[c.Offset+1] = counter & 0x0F
		return
	}
	payload[c.Offset] = byte(crc >> 8)
	payload[c.Offset+1] = byte(crc)
	payload[c.Offset+2] = counter
}

// readHeader extracts the transmitted crc and counter.
func (c Config) readHeader(payload []byte) (crc uint16, counter uint8) {
	if c.Profile == P01 {
		return uint16(payload[c.Offset]), payload[c.Offset+1] & 0x0F
	}
	return uint16(payload[c.Offset])<<8 | uint16(payload[c.Offset+1]), payload[c.Offset+2]
}

// Sender protects outgoing payloads of one channel: each Protect stamps
// the next sequence counter and the CRC into the payload's header field
// in place.
type Sender struct {
	cfg     Config
	counter int
}

// NewSender creates the sending end of a protected channel.
func NewSender(cfg Config) *Sender { return &Sender{cfg: cfg.fill()} }

// Protect writes the protection header (counter + CRC over DataID and
// payload) into the payload in place and advances the sequence counter.
func (s *Sender) Protect(payload []byte) error {
	if err := s.cfg.Validate(len(payload)); err != nil {
		return err
	}
	s.cfg.writeHeader(payload, 0, uint8(s.counter))
	crc := s.cfg.computeCRC(payload)
	s.cfg.writeHeader(payload, crc, uint8(s.counter))
	s.counter = (s.counter + 1) % s.cfg.Profile.counterModulus()
	return nil
}

// Counter returns the counter value the next Protect will stamp.
func (s *Sender) Counter() uint8 { return uint8(s.counter) }

// Status is the per-check verdict of the receiving end — the E2E profile
// check status.
type Status uint8

// The receiver check statuses.
const (
	// StatusOK: new data, correct CRC, counter within the accepted delta.
	StatusOK Status = iota
	// StatusRepeated: correct CRC but the counter did not advance — a
	// duplicated or replayed PDU.
	StatusRepeated
	// StatusWrongSequence: correct CRC but the counter jumped further than
	// MaxDeltaCounter — re-ordering or bursty loss.
	StatusWrongSequence
	// StatusNotAvailable: no valid data within the configured Timeout (or
	// none ever) — the channel is considered down.
	StatusNotAvailable
	// StatusNoNewData: the check ran with nothing received since the last
	// check; within the timeout this is tolerated staleness.
	StatusNoNewData
	// StatusError: CRC verification failed — corruption, truncation or a
	// masqueraded DataID.
	StatusError
)

var statusNames = [...]string{"ok", "repeated", "wrong-sequence", "not-available", "no-new-data", "error"}

func (s Status) String() string {
	if int(s) < len(statusNames) {
		return statusNames[s]
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// DetectedClass maps a non-OK status to the communication fault class it
// evidences, for metrics and diagnostics: "crc" (corruption or
// masquerade — indistinguishable by design, both fail the DataID-bound
// CRC), "duplicate", "sequence" or "timeout". OK and NoNewData return ""
// (no fault detected).
func (s Status) DetectedClass() string {
	switch s {
	case StatusError:
		return "crc"
	case StatusRepeated:
		return "duplicate"
	case StatusWrongSequence:
		return "sequence"
	case StatusNotAvailable:
		return "timeout"
	case StatusOK, StatusNoNewData:
		return ""
	}
	return ""
}

// SMState is the window-qualified channel state — the E2E state machine
// that debounces isolated glitches before anyone acts on the channel.
type SMState uint8

// The qualification states.
const (
	// SMNoData: nothing was ever received on the channel.
	SMNoData SMState = iota
	// SMInit: data seen but the qualification window has not filled yet.
	SMInit
	// SMValid: the window holds enough OKs and few enough errors.
	SMValid
	// SMInvalid: the window crossed the error bound — the channel is
	// qualified as failed.
	SMInvalid
)

var smStateNames = [...]string{"no-data", "init", "valid", "invalid"}

func (s SMState) String() string {
	if int(s) < len(smStateNames) {
		return smStateNames[s]
	}
	return fmt.Sprintf("smstate(%d)", uint8(s))
}

// Receiver verifies incoming payloads of one channel and qualifies the
// channel through the window state machine. Not safe for concurrent use;
// like everything in the simulation it lives on the kernel goroutine.
type Receiver struct {
	cfg         Config
	initialized bool
	lastCounter uint8
	lastNewData sim.Time
	everChecked bool

	window []Status // qualification ring, capped at cfg.WindowSize
	wpos   int
	filled bool
}

// NewReceiver creates the receiving end of a protected channel.
func NewReceiver(cfg Config) *Receiver {
	cfg = cfg.fill()
	return &Receiver{cfg: cfg, window: make([]Status, 0, cfg.WindowSize)}
}

// Config returns the receiver's filled configuration.
func (r *Receiver) Config() Config { return r.cfg }

// Check verifies one reception at virtual time now. A nil payload means
// "the check ran but nothing arrived" (timeout supervision): it yields
// NoNewData within the Timeout and NotAvailable beyond it. The returned
// status is also pushed into the qualification window (NoNewData is
// neutral: tolerated staleness neither builds nor destroys trust).
func (r *Receiver) Check(now sim.Time, payload []byte) Status {
	st := r.check(now, payload)
	r.everChecked = true
	if st != StatusNoNewData {
		r.push(st)
	}
	return st
}

func (r *Receiver) check(now sim.Time, payload []byte) Status {
	if payload == nil {
		if !r.initialized {
			return StatusNotAvailable
		}
		if r.cfg.Timeout > 0 && now-r.lastNewData > r.cfg.Timeout {
			return StatusNotAvailable
		}
		return StatusNoNewData
	}
	if r.cfg.Validate(len(payload)) != nil {
		return StatusError // truncated below the header: unverifiable
	}
	wantCRC, counter := r.cfg.readHeader(payload)
	if r.cfg.computeCRC(payload) != wantCRC {
		return StatusError
	}
	r.lastNewData = now
	if !r.initialized {
		r.initialized = true
		r.lastCounter = counter
		return StatusOK
	}
	mod := r.cfg.Profile.counterModulus()
	delta := (int(counter) - int(r.lastCounter) + mod) % mod
	switch {
	case delta == 0:
		return StatusRepeated
	case delta <= int(r.cfg.MaxDeltaCounter):
		r.lastCounter = counter
		return StatusOK
	default:
		// Resynchronize on the received counter so one wild jump does not
		// condemn every subsequent (again consecutive) reception.
		r.lastCounter = counter
		return StatusWrongSequence
	}
}

// push records a status in the qualification ring.
func (r *Receiver) push(st Status) {
	if len(r.window) < r.cfg.WindowSize {
		r.window = append(r.window, st)
		if len(r.window) == r.cfg.WindowSize {
			r.filled = true
		}
		return
	}
	r.window[r.wpos] = st
	r.wpos = (r.wpos + 1) % r.cfg.WindowSize
}

// windowCounts tallies the qualification ring.
func (r *Receiver) windowCounts() (ok, bad int) {
	for _, st := range r.window {
		switch st {
		case StatusOK:
			ok++
		case StatusError, StatusWrongSequence, StatusRepeated, StatusNotAvailable:
			bad++
		case StatusNoNewData:
			// neutral; never pushed, but keep the switch exhaustive
		}
	}
	return ok, bad
}

// State returns the window-qualified channel state (CheckStatus): the
// answer "can I trust this channel right now?".
func (r *Receiver) State() SMState {
	if !r.everChecked && len(r.window) == 0 {
		return SMNoData
	}
	ok, bad := r.windowCounts()
	if bad > r.cfg.MaxErrorsForValid {
		return SMInvalid
	}
	if !r.initialized {
		if len(r.window) > 0 {
			return SMInvalid // only failures ever seen
		}
		return SMNoData
	}
	if !r.filled {
		return SMInit
	}
	if ok >= r.cfg.MinOKForValid {
		return SMValid
	}
	return SMInvalid
}

// Reset clears counter expectation and qualification window — used after
// a reconfiguration (e.g. channel failover) gives the stream a fresh
// start.
func (r *Receiver) Reset() {
	r.initialized = false
	r.everChecked = false
	r.window = r.window[:0]
	r.wpos = 0
	r.filled = false
}
