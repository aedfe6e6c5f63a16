package rte

// Flight-recorder, virtual-time sampling and diagnostic-bundle wiring:
// the platform side of observability v2. The flight recorder is attached
// at Build (bounded rings, always on), the sampler is armed on demand on
// the kernel's virtual-time grid, and Bundle cuts everything into one
// serializable diagnostic snapshot.

import (
	"autorte/internal/obs"
	"autorte/internal/sim"
	"autorte/internal/trace"
)

// SamplerPrio orders the sampling grid tick against same-instant model
// events: higher than every substrate priority, so a sample reads the
// state after the instant has settled.
const SamplerPrio = 99

// attachFlight arms the flight recorder on a freshly built platform:
// the bounded DLT ring becomes the platform log and exceptional trace
// records (aborts, misses, drops, errors, recoveries) mirror into the
// span ring.
func (p *Platform) attachFlight() {
	if p.opts.DisableFlight {
		return
	}
	p.Flight = obs.NewFlight(obs.FlightConfig{})
	p.DLT = p.Flight.DLT
	flight := p.Flight
	// Routine completions, activations and scheduler detail stay out of
	// the ring: the black box keeps exceptional outcomes (liveness is the
	// sampler's job), and the kind mask keeps the sink call itself off
	// the per-record hot path, so a healthy platform pays almost nothing
	// for the always-on recorder.
	p.Trace.SinkKinds = trace.MaskOf(trace.Abort, trace.Miss, trace.Drop, trace.Error, trace.Recover)
	p.Trace.Sink = func(rec trace.Record) {
		flight.Instant(int64(rec.At), rec.Source, rec.Kind.String(), rec.Info)
	}
}

// Note records one platform-history event (mode change, escalation,
// operator action) into the flight recorder. No-op without one.
func (p *Platform) Note(kind, detail string) {
	p.Flight.Note(int64(p.K.Now()), kind, detail)
}

// EnableSampling arms virtual-time metric sampling: every step of
// virtual time (starting now), every registered metric matched by match
// (nil: all) appends its current value to its time series. Counter
// increments additionally feed the flight recorder's metric-delta ring.
// Idempotent: the first call fixes grid and filter, later calls return
// the same sampler.
func (p *Platform) EnableSampling(step sim.Duration, match func(name string) bool) *obs.Sampler {
	if p.sampler != nil {
		return p.sampler
	}
	opt := obs.SamplerOptions{Match: match}
	if p.Flight != nil {
		opt.OnDelta = p.Flight.OnDelta
	}
	p.sampler = obs.NewSampler(p.Metrics, opt)
	s := p.sampler
	p.samplerCancel = p.K.Every(p.K.Now(), step, SamplerPrio, func(now sim.Time) {
		s.Sample(int64(now))
	})
	return p.sampler
}

// Sampler returns the sampler armed by EnableSampling, or nil.
func (p *Platform) Sampler() *obs.Sampler { return p.sampler }

// StopSampling cancels the sampling grid; recorded series remain
// readable. No-op if sampling was never enabled.
func (p *Platform) StopSampling() {
	if p.samplerCancel != nil {
		p.samplerCancel()
		p.samplerCancel = nil
	}
}

// Bundle cuts a diagnostic bundle: one consistent snapshot of the
// flight recorder, the metric registry and any sampled time series,
// stamped with the current virtual time, the given reason and the
// system's configuration hash. With the flight recorder disabled the
// bundle still carries metrics, series and whatever DLT log is attached.
func (p *Platform) Bundle(reason string) *obs.Bundle {
	b := &obs.Bundle{
		Version:    obs.BundleVersion,
		Reason:     reason,
		At:         int64(p.K.Now()),
		ConfigHash: p.Sys.Hash(),
		Meta:       map[string]string{"system": p.Sys.Name},
		Flight:     p.Flight.Snapshot(),
		Metrics:    p.Metrics.Snapshot(),
	}
	if p.Flight == nil && p.DLT != nil {
		b.Flight.DLT = p.DLT.Records()
		b.Flight.DLTTotal = p.DLT.Total()
	}
	if p.sampler != nil {
		b.Series = p.sampler.Series()
	}
	return b
}

// ServeOptions returns the wiring for obs.NewServeHandler over this
// platform: live scrape of its registry, tail of its DLT log, and
// on-demand bundles.
func (p *Platform) ServeOptions() obs.ServeOptions {
	return obs.ServeOptions{
		Registry: p.Metrics,
		DLT:      p.DLT,
		Bundle:   p.Bundle,
	}
}
