package obs

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// A diagnostic bundle is the serialized form of "what just happened":
// one consistent snapshot of the flight recorder, the metric registry,
// and any virtual-time series, stamped with the reason it was cut and a
// hash of the platform configuration that produced it. Platforms cut
// bundles on health escalations at partition-restart or above, on safe
// stop, and on demand; cmd/autodiag inspects them offline.

// BundleVersion is the format version written into every bundle.
const BundleVersion = 1

// Bundle is one serialized diagnostic snapshot.
//
//autovet:nilsafe
type Bundle struct {
	Version int    `json:"version"`
	Reason  string `json:"reason"`
	// At is the virtual time (ns) the bundle was cut.
	At int64 `json:"at_ns"`
	// ConfigHash fingerprints the platform model so two bundles can be
	// checked for comparability before diffing.
	ConfigHash string `json:"config_hash,omitempty"`
	// Meta carries free-form identification (platform name, scenario,
	// run index) set by whoever cuts the bundle.
	Meta map[string]string `json:"meta,omitempty"`

	Flight  FlightView `json:"flight"`
	Metrics []Sample   `json:"metrics,omitempty"`
	Series  []Series   `json:"series,omitempty"`
}

// Write serializes the bundle as gzipped JSON. Safe on a nil receiver
// (writes nothing, returns nil).
func (b *Bundle) Write(w io.Writer) error {
	if b == nil {
		return nil
	}
	zw := gzip.NewWriter(w)
	enc := json.NewEncoder(zw)
	if err := enc.Encode(b); err != nil {
		zw.Close()
		return err
	}
	return zw.Close()
}

// WriteFile serializes the bundle to path. Safe on a nil receiver
// (no-op).
func (b *Bundle) WriteFile(path string) error {
	if b == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := b.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadBundle deserializes a bundle written by Write. Plain (ungzipped)
// JSON is accepted too, so hand-edited or tool-produced bundles load.
func ReadBundle(r io.Reader) (*Bundle, error) {
	br := newPeekReader(r)
	head, err := br.peek(2)
	if err != nil {
		return nil, fmt.Errorf("obs: read bundle: %w", err)
	}
	var src io.Reader = br
	if len(head) == 2 && head[0] == 0x1f && head[1] == 0x8b {
		zr, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("obs: read bundle: %w", err)
		}
		defer zr.Close()
		src = zr
	}
	var b Bundle
	dec := json.NewDecoder(src)
	if err := dec.Decode(&b); err != nil {
		return nil, fmt.Errorf("obs: decode bundle: %w", err)
	}
	if tok, err := dec.Token(); err != io.EOF {
		if err == nil {
			err = fmt.Errorf("data after the bundle: %v", tok)
		}
		return nil, fmt.Errorf("obs: decode bundle: %w", err)
	}
	if b.Version == 0 || b.Version > BundleVersion {
		return nil, fmt.Errorf("obs: unsupported bundle version %d", b.Version)
	}
	return &b, nil
}

// ReadBundleFile loads a bundle from path.
func ReadBundleFile(path string) (*Bundle, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadBundle(f)
}

// peekReader lets ReadBundle sniff the gzip magic without consuming it.
type peekReader struct {
	r    io.Reader
	head []byte
}

func newPeekReader(r io.Reader) *peekReader { return &peekReader{r: r} }

func (p *peekReader) peek(n int) ([]byte, error) {
	buf := make([]byte, n)
	m, err := io.ReadFull(p.r, buf)
	p.head = buf[:m]
	if err == io.ErrUnexpectedEOF || err == io.EOF {
		return p.head, nil
	}
	return p.head, err
}

func (p *peekReader) Read(b []byte) (int, error) {
	if len(p.head) > 0 {
		n := copy(b, p.head)
		p.head = p.head[n:]
		return n, nil
	}
	return p.r.Read(b)
}

// ChromeEvents converts the bundle's flight spans into Chrome trace
// events (ChromeEvents) so a bundle exports straight into
// chrome://tracing. Nil on a nil receiver.
func (b *Bundle) ChromeEvents() []TraceEvent {
	if b == nil {
		return nil
	}
	return ChromeEvents(b.Flight.Spans)
}

// SampleDiff is the change of one metric series between two bundles.
type SampleDiff struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Kind   string  `json:"kind"`
	Before float64 `json:"before"`
	After  float64 `json:"after"`
	Delta  float64 `json:"delta"`
}

// DiffSamples compares two metric snapshots series-by-series, returning
// every series whose value changed plus series present in only one
// snapshot (the missing side reads as zero). Histograms compare on
// their cumulative count. Output is deterministic: sorted by name then
// label set.
func DiffSamples(before, after []Sample) []SampleDiff {
	val := func(s Sample) float64 {
		if s.Kind == KindHistogram.String() {
			return float64(s.Count)
		}
		return s.Value
	}
	type side struct {
		s   Sample
		has bool
	}
	merged := map[string]*[2]side{}
	var order []string
	add := func(idx int, samples []Sample) {
		for _, s := range samples {
			key := seriesKey(s.Name, s.Labels)
			m := merged[key]
			if m == nil {
				m = &[2]side{}
				merged[key] = m
				order = append(order, key)
			}
			m[idx] = side{s: s, has: true}
		}
	}
	add(0, before)
	add(1, after)
	var out []SampleDiff
	for _, key := range order {
		m := merged[key]
		ref := m[0].s
		if !m[0].has {
			ref = m[1].s
		}
		var bv, av float64
		if m[0].has {
			bv = val(m[0].s)
		}
		if m[1].has {
			av = val(m[1].s)
		}
		if bv == av {
			continue
		}
		out = append(out, SampleDiff{
			Name: ref.Name, Labels: ref.Labels, Kind: ref.Kind,
			Before: bv, After: av, Delta: av - bv,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return labelString(out[i].Labels) < labelString(out[j].Labels)
	})
	return out
}

// WriteSummary renders a human-oriented overview of the bundle: identity,
// ring fill levels, DLT level counts, history tail. Safe on a nil
// receiver (writes nothing).
func (b *Bundle) WriteSummary(w io.Writer) error {
	if b == nil {
		return nil
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "bundle v%d  reason=%s  at=%.6fs\n", b.Version, b.Reason, float64(b.At)/1e9)
	if b.ConfigHash != "" {
		fmt.Fprintf(&sb, "config hash: %s\n", b.ConfigHash)
	}
	if len(b.Meta) > 0 {
		keys := make([]string, 0, len(b.Meta))
		for k := range b.Meta {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&sb, "meta %s: %s\n", k, b.Meta[k])
		}
	}
	levelCounts := map[Level]int{}
	for _, r := range b.Flight.DLT {
		levelCounts[r.Level]++
	}
	fmt.Fprintf(&sb, "dlt: %d retained / %d total", len(b.Flight.DLT), b.Flight.DLTTotal)
	for lv := LevelFatal; ; lv-- {
		if n := levelCounts[lv]; n > 0 {
			fmt.Fprintf(&sb, "  %s=%d", lv, n)
		}
		if lv == LevelVerbose {
			break
		}
	}
	sb.WriteByte('\n')
	fmt.Fprintf(&sb, "spans: %d retained / %d total\n", len(b.Flight.Spans), b.Flight.SpanTotal)
	fmt.Fprintf(&sb, "metric deltas: %d retained / %d total\n", len(b.Flight.Deltas), b.Flight.DeltaTotal)
	fmt.Fprintf(&sb, "metrics: %d series   time series: %d\n", len(b.Metrics), len(b.Series))
	if n := len(b.Flight.History); n > 0 {
		fmt.Fprintf(&sb, "history (%d events):\n", n)
		for _, h := range b.Flight.History {
			fmt.Fprintf(&sb, "  %12.6f  %-12s %s\n", float64(h.At)/1e9, h.Kind, h.Detail)
		}
	}
	_, err := io.WriteString(w, sb.String())
	return err
}
