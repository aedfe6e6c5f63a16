package rte

import (
	"autorte/internal/model"
	"autorte/internal/obs"
	"autorte/internal/trace"
)

// ErrorKind classifies platform errors per the paper's §2 use cases.
type ErrorKind string

// The standardized error classes: broken sensors, communication errors
// and memory failures, plus timing-protection violations.
const (
	ErrSensor ErrorKind = "sensor"
	ErrComm   ErrorKind = "comm"
	ErrMemory ErrorKind = "memory"
	ErrTiming ErrorKind = "timing"
	// ErrFlow is a program-flow (logical supervision) violation: a
	// supervised runnable visited checkpoints out of graph order.
	ErrFlow ErrorKind = "flow"
)

// ErrorRecord is one reported platform error.
type ErrorRecord struct {
	At     int64 // virtual ns
	Source string
	Kind   ErrorKind
	Info   string
}

// DefaultErrorRecordCap bounds the retained raw error records. Long
// fault campaigns report without limit; the raw freeze frames beyond the
// cap are the only thing dropped — DTC aggregation and per-kind counts
// stay exact forever.
const DefaultErrorRecordCap = 4096

// ErrorManager implements the consistent error handling concept: errors
// are reported once, recorded, and communicated to the application layer
// by activating subscribed mode-switch runnables. Applications use this
// for mode management and diagnostics. The raw reports live in an
// obs.Ring of the DefaultErrorRecordCap most recent; the manager adds
// only the exact DTC and per-kind aggregates. It runs on the platform's
// kernel goroutine, so it takes no lock.
type ErrorManager struct {
	p       *Platform
	records *obs.Ring[ErrorRecord]
	// Exact aggregates, maintained on every report so the ring cap never
	// distorts diagnostics.
	//autovet:bounded deduped per (source, kind); growth is bounded by the model
	dtcs     []DTC
	dtcIndex map[string]int
	byKind   map[ErrorKind]int
	// subscribers per kind: tasks to activate.
	subs map[ErrorKind][]string

	// OnReport, when set, observes every report as it is recorded — the
	// hook the health monitor's error qualification attaches to. It runs
	// after the report is counted and logged but before the mode switch.
	OnReport func(ErrorRecord)
}

func newErrorManager(p *Platform) *ErrorManager {
	em := &ErrorManager{
		p: p, records: obs.NewRing[ErrorRecord](DefaultErrorRecordCap),
		dtcIndex: map[string]int{},
		byKind:   map[ErrorKind]int{},
		subs:     map[ErrorKind][]string{},
	}
	// Auto-subscribe every mode-switch runnable whose Mode names an error
	// kind.
	for _, comp := range p.Sys.Components {
		for i := range comp.Runnables {
			run := &comp.Runnables[i]
			if run.Trigger.Kind == model.ModeSwitchEvent && run.Trigger.Mode != "" {
				kind := ErrorKind(run.Trigger.Mode)
				em.subs[kind] = append(em.subs[kind], comp.Name+"."+run.Name)
			}
		}
	}
	return em
}

// Report records an error and communicates it to the application layer by
// switching into the error's mode (activating subscribed handlers) — the
// "means for mode management and diagnostic purposes" of §2. Every report
// also increments the per-kind rte_errors_total counter and lands in the
// DLT event log when one is attached.
func (em *ErrorManager) Report(source string, kind ErrorKind, info string) {
	now := em.p.K.Now()
	rec := ErrorRecord{At: int64(now), Source: source, Kind: kind, Info: info}
	em.records.Push(rec)
	em.byKind[kind]++
	key := source + "/" + string(kind)
	if i, ok := em.dtcIndex[key]; ok {
		d := &em.dtcs[i]
		d.Occurrences++
		d.LastAt = rec.At
		d.LastInfo = info
	} else {
		em.dtcIndex[key] = len(em.dtcs)
		em.dtcs = append(em.dtcs, DTC{
			Source: source, Kind: kind, Occurrences: 1,
			FirstAt: rec.At, LastAt: rec.At, LastInfo: info,
		})
	}
	em.p.Trace.Emit(now, trace.Error, source, em.Total(), string(kind)+": "+info)
	em.p.Metrics.Counter("rte_errors_total",
		"Errors reported through the platform error manager, by kind.",
		obs.Label{Key: "kind", Value: string(kind)}).Inc()
	em.p.DLT.Emit(int64(now), obs.LevelError, "RTE", "ERR", source+": "+string(kind)+": "+info)
	if em.OnReport != nil {
		em.OnReport(rec)
	}
	em.p.SwitchMode(string(kind))
}

// SwitchMode activates every runnable subscribed to the named mode via a
// ModeSwitchEvent trigger — AUTOSAR mode management. Error kinds double as
// modes; applications can define their own (e.g. "limp-home", "degraded")
// and switch into them from behaviours or test harnesses.
func (p *Platform) SwitchMode(mode string) {
	p.Metrics.Counter("rte_mode_switches_total",
		"Mode switches performed by the platform, by mode.",
		obs.Label{Key: "mode", Value: mode}).Inc()
	p.DLT.Emitf(int64(p.K.Now()), obs.LevelInfo, "RTE", "MODE",
		"mode switch -> %s (%d subscribed handlers)", mode, len(p.Errors.subs[ErrorKind(mode)]))
	for _, taskName := range p.Errors.subs[ErrorKind(mode)] {
		if t := p.tasks[taskName]; t != nil {
			ecu := p.Sys.Mapping[taskName[:indexDot(taskName)]]
			p.cpus[ecu].Activate(t)
		}
	}
}

func indexDot(s string) int {
	for i := 0; i < len(s); i++ {
		if s[i] == '.' {
			return i
		}
	}
	return len(s)
}

// Records returns a copy of the retained error records in report order:
// all of them while under DefaultErrorRecordCap, the most recent cap
// reports after that (Total counts every report ever made).
func (em *ErrorManager) Records() []ErrorRecord { return em.records.Snapshot() }

// Total returns how many errors have ever been reported, independent of
// the record ring cap.
func (em *ErrorManager) Total() int64 { return int64(em.records.Total()) }

// DTC is a diagnostic trouble code entry: the aggregated view of one
// (source, kind) fault with occurrence count and first/last freeze frames
// — the "diagnostic purposes" half of §2's error handling concept.
type DTC struct {
	Source      string
	Kind        ErrorKind
	Occurrences int
	FirstAt     int64 // virtual ns of the first occurrence
	LastAt      int64 // virtual ns of the latest occurrence
	LastInfo    string
}

// DTCs returns the aggregated trouble codes, ordered by first occurrence.
// The aggregation is maintained per report, so it stays exact even after
// the raw record ring has dropped old freeze frames.
func (em *ErrorManager) DTCs() []DTC {
	out := make([]DTC, len(em.dtcs))
	copy(out, em.dtcs)
	return out
}

// DTCCount returns the number of distinct (source, kind) trouble codes.
func (em *ErrorManager) DTCCount() int { return len(em.dtcs) }

// CountKind returns how many errors of a kind were reported, independent
// of the record ring cap.
func (em *ErrorManager) CountKind(kind ErrorKind) int { return em.byKind[kind] }
