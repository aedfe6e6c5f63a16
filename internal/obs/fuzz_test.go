package obs

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"testing"
)

// refRing is the reference for Ring and the policies folded on top of
// it: a keep-everything slice, trimmed to the last cap entries on read,
// where an addition first offers itself to the newest lookback retained
// entries and is stored only when none absorbs it.
type refRing[T comparable] struct {
	all   []T
	cap   int
	total uint64
}

func (r *refRing[T]) kept() []T {
	if len(r.all) > r.cap {
		return r.all[len(r.all)-r.cap:]
	}
	return r.all
}

// add records v; fold may absorb it into a retained entry, scanned
// newest-first over at most lookback entries.
func (r *refRing[T]) add(v T, lookback int, fold func(prev *T) bool) {
	r.total++
	k := r.kept()
	for i := 0; i < lookback && i < len(k); i++ {
		if fold(&k[len(k)-1-i]) {
			return
		}
	}
	r.all = append(r.all, v)
}

func sameEntries[T comparable](t *testing.T, what string, got, want []T) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d retained, want %d\n got %+v\nwant %+v", what, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: entry %d = %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// fuzzRingCaps are the capacities FuzzRing picks from: a single slot,
// small caps that wrap within a few operations, and one no input reaches.
var fuzzRingCaps = [...]int{1, 2, 3, 4, 5, 8, 32, 1 << 20}

// FuzzRing holds Ring, the Log's repeat folding and the flight
// recorder's instant coalescing to keep-everything references. The first
// byte picks the cap (and, with its top bit, NewLog's unbounded mode for
// the Log); every further byte is one operation on each of the three.
func FuzzRing(f *testing.F) {
	f.Add([]byte{0, 1, 1, 1, 3, 3, 1})                      // cap 1: every push evicts
	f.Add([]byte{2, 0, 2, 4, 6, 8, 10, 12, 14, 1, 3})       // cap 3: wrap, then folds across it
	f.Add([]byte{7, 0, 1, 0, 1, 0x41, 0x60, 0x60, 0x61})    // never reached
	f.Add([]byte{0x87, 0, 0, 4, 4, 0x80, 0x81, 0xe0, 0xe0}) // unbounded Log
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		ringCap := fuzzRingCaps[int(data[0])%len(fuzzRingCaps)]
		ops := data[1:]

		// The bare ring: even bytes push, odd bytes fold into an equal
		// value within the lookback the byte also picks.
		type entry struct{ v, n int }
		ring, ref := NewRing[entry](ringCap), &refRing[entry]{cap: ringCap}
		for _, b := range ops {
			v, lookback := int(b>>1)&3, int(b>>3)&3
			if b&1 == 0 {
				ring.Push(entry{v: v})
				ref.add(entry{v: v}, 0, nil)
			} else {
				folded := false
				for i := 0; i < lookback; i++ {
					prev := ring.Newest(i)
					if prev == nil {
						break
					}
					if prev.v == v {
						prev.n++
						ring.Absorbed()
						folded = true
						break
					}
				}
				if !folded {
					ring.Push(entry{v: v})
				}
				ref.add(entry{v: v}, lookback, func(prev *entry) bool {
					if prev.v != v {
						return false
					}
					prev.n++
					return true
				})
			}
			sameEntries(t, "ring", ring.Snapshot(), ref.kept())
			if ring.Total() != ref.total || ring.Len() != len(ref.kept()) || ring.Cap() != ringCap {
				t.Fatalf("ring total/len/cap = %d/%d/%d, want %d/%d/%d",
					ring.Total(), ring.Len(), ring.Cap(), ref.total, len(ref.kept()), ringCap)
			}
			for i := 0; i <= ring.Len(); i++ {
				got, k := ring.Newest(i), ref.kept()
				if i == len(k) {
					if got != nil {
						t.Fatalf("Newest(%d) past the %d retained = %+v", i, len(k), *got)
					}
				} else if got == nil || *got != k[len(k)-1-i] {
					t.Fatalf("Newest(%d) = %v, want %+v", i, got, k[len(k)-1-i])
				}
			}
		}

		// The Log: a small alphabet of messages at three levels, so bursts
		// repeat; the reference drops below Min and folds within
		// logRepeatLookback in ring mode, nothing in the unbounded mode.
		log, logRef, lookback := NewBoundedLog(LevelInfo, ringCap), &refRing[LogRecord]{cap: ringCap}, logRepeatLookback
		if data[0]&0x80 != 0 {
			log, logRef.cap, lookback = NewLog(LevelInfo), len(ops)+1, 0
		}
		levels := [...]Level{LevelDebug, LevelInfo, LevelError}
		for at, b := range ops {
			rec := LogRecord{At: int64(at), Level: levels[int(b>>2)%3], App: "A", Ctx: "C", Msg: string(rune('a' + b&3))}
			if b&0x10 != 0 {
				rec.App = "B"
			}
			before := log.Records()
			log.Emit(rec.At, rec.Level, rec.App, rec.Ctx, rec.Msg)
			if rec.Level >= LevelInfo {
				logRef.add(rec, lookback, func(prev *LogRecord) bool {
					if prev.Level != rec.Level || prev.App != rec.App || prev.Ctx != rec.Ctx || prev.Msg != rec.Msg {
						return false
					}
					prev.Repeat = max(prev.Repeat, 1) + 1
					return true
				})
			}
			after := log.Records()
			sameEntries(t, "log", after, logRef.kept())
			if log.Total() != logRef.total {
				t.Fatalf("log total = %d, want %d", log.Total(), logRef.total)
			}
			// A kept emission that is not the newest record was folded: it
			// rewrote exactly one record, never one older than the lookback
			// behind the newest.
			if rec.Level >= LevelInfo && after[len(after)-1] != rec {
				changed := 0
				for i := range before {
					if before[i] == after[i] {
						continue
					}
					changed++
					if len(after)-1-i >= lookback {
						t.Fatalf("emission %d folded into record %d of %d, past lookback %d", at, i, len(after), lookback)
					}
				}
				if len(after) != len(before) || changed != 1 {
					t.Fatalf("fold of emission %d changed %d records (%d -> %d retained), want 1", at, changed, len(before), len(after))
				}
			}
		}

		// The flight recorder's span ring: instants coalesce within
		// instantLookback but never into an Open span; closed spans and
		// open ones are stored as given.
		fl, spanRef := NewFlight(FlightConfig{SpanCap: ringCap}), &refRing[SpanEvent]{cap: ringCap}
		for at, b := range ops {
			name, detail := string(rune('a'+b&3)), ""
			if b&4 != 0 {
				detail = "d"
			}
			switch (b >> 5) & 3 {
			case 2, 3:
				sp := SpanEvent{Name: name, Kind: "k", Detail: detail, Start: int64(at), End: int64(at), Open: (b>>5)&3 == 3}
				fl.Span(sp)
				spanRef.add(sp, 0, nil)
			default:
				fl.Instant(int64(at), name, "k", detail)
				spanRef.add(SpanEvent{Name: name, Kind: "k", Detail: detail, Start: int64(at), End: int64(at)}, instantLookback,
					func(prev *SpanEvent) bool {
						if prev.Open || prev.Name != name || prev.Kind != "k" || prev.Detail != detail {
							return false
						}
						prev.Count = max(prev.Count, 1) + 1
						prev.End = int64(at)
						return true
					})
			}
			v := fl.Snapshot()
			sameEntries(t, "spans", v.Spans, spanRef.kept())
			if v.SpanTotal != spanRef.total {
				t.Fatalf("span total = %d, want %d", v.SpanTotal, spanRef.total)
			}
			for _, sp := range v.Spans {
				if sp.Open && (sp.Count != 0 || sp.End != sp.Start) {
					t.Fatalf("open span absorbed an instant: %+v", sp)
				}
			}
		}
	})
}

// FuzzReadBundle holds the bundle reader — autodiag's input boundary, fed
// files from other machines — to its properties: any bytes, gzipped or
// plain, give an error or a bundle, never a panic; an accepted input
// followed by '{' is rejected (only whitespace may follow the bundle); an
// accepted bundle renders its summary and Chrome events; and writing it
// and reading it
// back gives the same bundle, compared by its JSON encoding (omitempty
// already reads an empty map or list the same as an absent one). The
// committed corpus holds a real E11 forced safe-stop bundle, gzipped and
// plain.
func FuzzReadBundle(f *testing.F) {
	f.Add([]byte(`{"version":1,"reason":"r","flight":{"dlt":[{"level":4,"msg":"x","repeat":3}],"spans":[{"name":"s","start_ns":1,"end_ns":2,"count":2}]}}`))
	f.Add([]byte(`{"version":2}`))
	f.Add([]byte{0x1f, 0x8b})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := ReadBundle(bytes.NewReader(data))
		if err != nil {
			if b != nil {
				t.Fatalf("error %v with a bundle", err)
			}
			return
		}
		if _, err := ReadBundle(bytes.NewReader(append(data[:len(data):len(data)], '{'))); err == nil {
			t.Fatalf("accepted input followed by '{' reads")
		}
		if err := b.WriteSummary(io.Discard); err != nil {
			t.Fatal(err)
		}
		b.ChromeEvents()

		var buf bytes.Buffer
		if err := b.Write(&buf); err != nil {
			t.Fatalf("write accepted bundle: %v", err)
		}
		if _, err := gzip.NewReader(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("written bundle is not gzip: %v", err)
		}
		again, err := ReadBundle(&buf)
		if err != nil {
			t.Fatalf("read back written bundle: %v", err)
		}
		want, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("round trip changed the bundle:\n got %s\nwant %s", got, want)
		}
	})
}
