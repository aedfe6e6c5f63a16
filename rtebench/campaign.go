package main

import (
	"bytes"
	_ "embed"
	"fmt"
	"time"

	"autorte/internal/experiments"
)

// The campaign workload runs the fail-operational studies back to back:
// E11's fault campaign, E12's detection coverage, E13's availability
// study and E14's observer quorum, switchover and automatic placement. It
// shares rte and sim with simulate but builds many short platforms and
// mutates them (KillECU, FailOver, FailBack, ResetECU) under the health
// ladder, the quorum and fault injection, so a change that speeds up
// steady-state simulation but costs Build or the mutations shows here.

// goldenCampaign is the six tables at their published configurations, as
// they appear in the repository's experiments_output.txt.
//
//go:embed testdata/campaign_default.golden
var goldenCampaign []byte

// campaignPass runs the six studies with the given seed (0: each one's
// published seed) and fan-out, and returns the rendered tables and the
// time spent in the studies.
func campaignPass(e *env, seed uint64, workers int) ([]byte, time.Duration, error) {
	c11, c12, c13, c14 := experiments.DefaultE11(), experiments.DefaultE12(), experiments.DefaultE13(), experiments.DefaultE14()
	c11.Workers, c13.Workers, c14.Workers = workers, workers, workers
	if seed != 0 {
		c11.Seed, c12.Seed, c13.Seed, c14.Seed = seed, seed, seed, seed
	}
	runs := []struct {
		name string
		run  func() (*experiments.Table, error)
	}{
		{"E11FaultCampaign", func() (*experiments.Table, error) { return experiments.E11FaultCampaign(c11) }},
		{"E12DetectionCoverage", func() (*experiments.Table, error) { return experiments.E12DetectionCoverage(c12) }},
		{"E13Availability", func() (*experiments.Table, error) { return experiments.E13Availability(c13) }},
		{"E14Observer", func() (*experiments.Table, error) { return experiments.E14Observer(c14) }},
		{"E14Switchover", func() (*experiments.Table, error) { return experiments.E14Switchover(c14) }},
		{"E14Placement", func() (*experiments.Table, error) { return experiments.E14Placement(c14) }},
	}
	var out bytes.Buffer
	var total time.Duration
	for _, r := range runs {
		var tab *experiments.Table
		d, err := e.call("experiments."+r.name, func() (err error) {
			tab, err = r.run()
			return err
		})
		total += d
		if err != nil {
			return nil, total, fmt.Errorf("%s: %w", r.name, err)
		}
		tab.Render(&out)
	}
	return out.Bytes(), total, nil
}

type campaignInst struct {
	e    *env
	seed uint64
	// ref is the pass at one worker; every timed pass must render the
	// same bytes.
	ref []byte
}

// setupCampaign runs the reference pass at one worker: the campaign has
// no inputs to generate, and every timed pass is checked against it.
func setupCampaign(seed uint64, e *env) (instance, error) {
	// inputSeed is never 0, which campaignPass reads as "published".
	seed = inputSeed(seed, "campaign", 0)
	ref, _, err := campaignPass(e, seed, 1)
	return &campaignInst{e: e, seed: seed, ref: ref}, err
}

// finish runs the studies at their published seeds: the tables must equal
// the published ones byte for byte.
func (c *campaignInst) finish() error {
	out, _, err := campaignPass(c.e, 0, workers())
	if err != nil {
		return err
	}
	if err := compareTables(out, goldenCampaign); err != nil {
		return fmt.Errorf("tables at the published seeds differ from experiments_output.txt: %w", err)
	}
	return nil
}

// compareTables checks rendered tables byte for byte and names the first
// line that differs.
func compareTables(got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) && i < len(w); i++ {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Errorf("line %d: got %q, want %q", i+1, g[i], w[i])
		}
	}
	return fmt.Errorf("got %d lines, want %d", len(g), len(w))
}

func (c *campaignInst) op(int) (time.Duration, error) {
	pr := c.e.probe()
	out, d, err := campaignPass(c.e, c.seed, workers())
	pr.done()
	if err != nil {
		return d, err
	}
	if err := compareTables(out, c.ref); err != nil {
		return d, fmt.Errorf("tables differ from the one-worker reference pass: %w", err)
	}
	return d, nil
}
