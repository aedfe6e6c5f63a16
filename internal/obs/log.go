package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"strconv"
	"sync"
)

// Level grades log records, mirroring AUTOSAR DLT's log levels.
type Level uint8

// DLT log levels, most severe last.
const (
	LevelVerbose Level = iota
	LevelDebug
	LevelInfo
	LevelWarn
	LevelError
	LevelFatal
)

var levelNames = [...]string{"verbose", "debug", "info", "warn", "error", "fatal"}

func (l Level) String() string {
	if int(l) < len(levelNames) {
		return levelNames[l]
	}
	return fmt.Sprintf("level(%d)", uint8(l))
}

// ParseLevel maps a level name back to its Level (the inverse of
// String); ok is false for unknown names.
func ParseLevel(name string) (Level, bool) {
	for i, n := range levelNames {
		if n == name {
			return Level(i), true
		}
	}
	return 0, false
}

// LogRecord is one structured event: a virtual-time-stamped, leveled,
// source-tagged message. App and Ctx mirror DLT's application and
// context IDs — the coarse and fine origin of the event (e.g. app "RTE",
// ctx "ERR").
type LogRecord struct {
	At    int64  `json:"at_ns"` // virtual-time ns (or wall ns in offline tools)
	Level Level  `json:"level"` // numeric; WriteJSON shadows it with the level name
	App   string `json:"app"`
	Ctx   string `json:"ctx"`
	Msg   string `json:"msg"`
	// Repeat is the number of occurrences folded into this record by
	// ring-mode burst suppression (zero means one). At keeps the first
	// occurrence; live subscribers still see every emission.
	Repeat int `json:"repeat,omitempty"`
}

// logRecordJSON is LogRecord with the level rendered as its name.
type logRecordJSON struct {
	LogRecord
	LevelName string `json:"level"`
}

// Log accumulates structured event records. A nil *Log is valid and
// discards everything — the same idiom as a nil *trace.Recorder — so
// substrates log unconditionally and pay nothing when observability is
// off. The records live in a Ring guarded by the Log's own mutex; the
// Log adds only its policy: the Min filter, live subscribers and, in
// ring mode, repeat folding. Build one with NewLog or NewBoundedLog.
// Safe for concurrent use.
//
//autovet:nilsafe
type Log struct {
	// Min drops records below this level at Emit time. The zero value
	// (LevelVerbose) keeps everything.
	Min Level

	mu      sync.Mutex
	ring    Ring[LogRecord] // ring mode: NewBoundedLog's cap; NewLog: unboundedCap
	dropped uint64          // filtered below Min
	subs    map[int]chan LogRecord
	nextSub int
}

// unboundedCap is a ring capacity no log reaches: the ring keeps doubling
// and never wraps. It is the storage of NewLog's keep-everything mode.
const unboundedCap = math.MaxInt

// NewLog returns a log keeping every record at or above min, unfolded —
// host-side capture, where fidelity beats a memory bound.
func NewLog(min Level) *Log { return &Log{Min: min, ring: *NewRing[LogRecord](unboundedCap)} }

// NewBoundedLog returns a ring-mode log keeping at most cap of the most
// recent records at or above min — the flight-recorder flavour: always
// on, allocation-free once the ring is full, bounded memory no matter
// how long the run. cap <= 0 falls back to DefaultRingCap.
func NewBoundedLog(min Level, cap int) *Log {
	return &Log{Min: min, ring: *NewRing[LogRecord](cap)}
}

// bounded reports ring mode; callers hold l.mu.
func (l *Log) bounded() bool { return l.ring.Cap() != unboundedCap }

// Emit appends one record. Safe on a nil receiver (no-op).
func (l *Log) Emit(at int64, level Level, app, ctx, msg string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if level < l.Min {
		l.dropped++
		return
	}
	rec := LogRecord{At: at, Level: level, App: app, Ctx: ctx, Msg: msg}
	if l.bounded() && l.absorbRepeat(rec) {
		// Burst suppressed into a recent record; subscribers below still
		// see the raw emission.
		l.ring.Absorbed()
	} else {
		l.ring.Push(rec)
	}
	for _, ch := range l.subs {
		select {
		//autovet:allow lockorder non-blocking send; cancel closes ch under l.mu, so sending under the lock is exactly what makes it close-safe
		case ch <- rec:
		default: // a stalled tail must not block the platform
		}
	}
}

// logRepeatLookback bounds ring-mode burst suppression: a fault storm
// that alternates two messages (stale/implausible input, say) still
// folds, while the scan stays O(1) per emission.
const logRepeatLookback = 2

// absorbRepeat folds an emission identical to one of the newest kept
// records into that record's Repeat count — AUTOSAR DLT-style message
// burst suppression, so a storm neither churns the black-box ring nor
// evicts the context around it. Callers hold l.mu.
func (l *Log) absorbRepeat(rec LogRecord) bool {
	for i := 0; i < logRepeatLookback; i++ {
		prev := l.ring.Newest(i)
		if prev == nil {
			return false
		}
		if prev.Level == rec.Level && prev.App == rec.App && prev.Ctx == rec.Ctx && prev.Msg == rec.Msg {
			if prev.Repeat == 0 {
				prev.Repeat = 1
			}
			prev.Repeat++
			return true
		}
	}
	return false
}

// Emitf is Emit with fmt formatting.
func (l *Log) Emitf(at int64, level Level, app, ctx, format string, args ...any) {
	if l == nil {
		return
	}
	l.Emit(at, level, app, ctx, sprintf(format, args))
}

// sprintf is fmt.Sprintf with a fast path for what the platform's log
// lines use: plain %s and %v of strings, errors and Stringers, and %d and
// %v of integers, including named string and integer types. Anything
// else (flags, widths, %%, other verbs, Formatters, other kinds, a
// panicking method, a mismatched argument count) is rendered by
// fmt.Sprintf, so the result is always fmt's.
func sprintf(format string, args []any) string {
	var buf [128]byte
	b, n := buf[:0], 0
	for i := 0; i < len(format); i++ {
		c := format[i]
		if c != '%' {
			b = append(b, c)
			continue
		}
		if i+1 == len(format) || n == len(args) {
			return fmt.Sprintf(format, args...)
		}
		i++
		var ok bool
		if b, ok = appendArg(b, format[i], args[n]); !ok {
			return fmt.Sprintf(format, args...)
		}
		n++
	}
	if n != len(args) {
		return fmt.Sprintf(format, args...)
	}
	return string(b)
}

// appendArg renders one argument for sprintf's fast path the way fmt
// does, or reports false to leave the whole line to fmt.
func appendArg(b []byte, verb byte, arg any) ([]byte, bool) {
	text := verb == 's' || verb == 'v'
	num := verb == 'd' || verb == 'v'
	switch v := arg.(type) {
	case fmt.Formatter:
		return b, false
	case error:
		return appendMethod(b, v.Error, text)
	case fmt.Stringer:
		return appendMethod(b, v.String, text)
	}
	switch rv := reflect.ValueOf(arg); rv.Kind() {
	case reflect.String:
		return append(b, rv.String()...), text
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return strconv.AppendInt(b, rv.Int(), 10), num
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return strconv.AppendUint(b, rv.Uint(), 10), num
	default:
		return b, false
	}
}

// appendMethod appends the text of an Error or String method for %s and
// %v, as fmt does. A method that panics (a nil pointer receiver, say)
// reports false, so fmt renders the line and reports the panic its way.
func appendMethod(b []byte, method func() string, text bool) (out []byte, ok bool) {
	if !text {
		return b, false
	}
	defer func() {
		if recover() != nil {
			out, ok = b, false
		}
	}()
	return append(b, method()...), true
}

// Len returns the number of kept records. Zero on a nil receiver.
func (l *Log) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.Len()
}

// Dropped returns how many records were filtered below Min.
func (l *Log) Dropped() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// Total returns how many records were ever kept, including those the
// ring cap has since overwritten. Zero on a nil receiver.
func (l *Log) Total() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.Total()
}

// Cap returns the ring capacity (0 means unbounded). Zero on a nil
// receiver.
func (l *Log) Cap() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.bounded() {
		return 0
	}
	return l.ring.Cap()
}

// Records returns a copy of the kept records, in emission order (the
// most recent cap records in ring mode). Nil on a nil receiver.
func (l *Log) Records() []LogRecord {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.Snapshot()
}

// Subscribe registers a live tail: every record kept after this call is
// also sent to the returned channel (non-blocking — a full buffer drops
// the delivery rather than stall the emitter). The cancel function
// unsubscribes and closes the channel. On a nil receiver the channel is
// already closed and cancel is a no-op.
func (l *Log) Subscribe(buf int) (<-chan LogRecord, func()) {
	if l == nil {
		ch := make(chan LogRecord) //autovet:allow bounded closed immediately: the nil-receiver tail never carries a record
		close(ch)
		return ch, func() {}
	}
	if buf <= 0 {
		buf = 64
	}
	ch := make(chan LogRecord, buf)
	l.mu.Lock()
	if l.subs == nil {
		l.subs = map[int]chan LogRecord{}
	}
	id := l.nextSub
	l.nextSub++
	l.subs[id] = ch
	l.mu.Unlock()
	return ch, func() {
		l.mu.Lock()
		if _, ok := l.subs[id]; ok {
			delete(l.subs, id)
			close(ch)
		}
		l.mu.Unlock()
	}
}

// Count returns how many kept records are at or above level.
func (l *Log) Count(level Level) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for i := 0; i < l.ring.Len(); i++ {
		if l.ring.Newest(i).Level >= level {
			n++
		}
	}
	return n
}

// WriteText renders the log in a DLT-viewer-like fixed-column text form:
//
//	12.345678 RTE      ERR      error    Sensor.sample: ...
//
// The timestamp column is virtual seconds. Safe on a nil receiver.
func (l *Log) WriteText(w io.Writer) error {
	if l == nil {
		return nil
	}
	for _, r := range l.Records() {
		_, err := fmt.Fprintf(w, "%17.6f %-8s %-8s %-7s %s\n",
			float64(r.At)/1e9, r.App, r.Ctx, r.Level, r.Msg)
		if err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON renders the log as JSON lines, one record per line. Safe on
// a nil receiver.
func (l *Log) WriteJSON(w io.Writer) error {
	if l == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	for _, r := range l.Records() {
		if err := enc.Encode(logRecordJSON{LogRecord: r, LevelName: r.Level.String()}); err != nil {
			return err
		}
	}
	return nil
}
