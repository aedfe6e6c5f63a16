package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sort"

	"autorte/internal/core"
	"autorte/internal/deploy"
	"autorte/internal/rte"
	"autorte/internal/trace"
)

// digester hashes outputs from their values only: every field written in
// a fixed order and length-prefixed, maps by sorted key, floats by their
// exact bits. No pointer, map layout or host time reaches the hash, so
// two equal outputs always digest equal and any changed value changes the
// digest.
type digester struct {
	h   hash.Hash
	buf []byte
}

func newDigester() *digester { return &digester{h: sha256.New()} }

// flush hands the buffered bytes to the hash once enough accumulated.
func (d *digester) flush(force bool) {
	if force || len(d.buf) >= 4096 {
		d.h.Write(d.buf)
		d.buf = d.buf[:0]
	}
}

func (d *digester) str(s string) *digester {
	d.buf = binary.LittleEndian.AppendUint64(d.buf, uint64(len(s)))
	d.buf = append(d.buf, s...)
	d.flush(false)
	return d
}

func (d *digester) int(v int64) *digester {
	d.buf = binary.LittleEndian.AppendUint64(d.buf, uint64(v))
	d.flush(false)
	return d
}

func (d *digester) float(v float64) *digester { return d.int(int64(math.Float64bits(v))) }

func (d *digester) bool(v bool) *digester {
	if v {
		return d.int(1)
	}
	return d.int(0)
}

func (d *digester) sum() string {
	d.flush(true)
	return hex.EncodeToString(d.h.Sum(nil))
}

// mapping writes a component → ECU mapping in sorted component order.
func (d *digester) mapping(m map[string]string) *digester {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	d.int(int64(len(keys)))
	for _, k := range keys {
		d.str(k).str(m[k])
	}
	return d
}

// reportDigest digests a static verification report.
func reportDigest(rep *core.Report) string {
	d := newDigester()
	d.str("ecus").int(int64(len(rep.ECUs)))
	for _, e := range rep.ECUs {
		d.str(e.Name).float(e.Utilization).bool(e.Schedulable).int(int64(len(e.Results)))
		for _, r := range e.Results {
			t := r.Task
			d.str(t.Name).int(int64(t.C)).int(int64(t.T)).int(int64(t.D)).int(int64(t.J)).int(int64(t.B)).int(int64(t.Priority))
			d.int(int64(r.WCRT)).bool(r.Schedulable).bool(r.Converged)
		}
	}
	d.str("buses").int(int64(len(rep.Buses)))
	for _, b := range rep.Buses {
		d.str(b.Name).str(b.Kind.String()).float(b.Load).bool(b.Schedulable).str(b.Detail)
	}
	d.str("chains").int(int64(len(rep.Chains)))
	for _, c := range rep.Chains {
		d.str(c.Name).int(int64(c.Bound)).int(int64(c.Budget)).bool(c.OK).str(c.Err)
	}
	d.str("contracts").bool(rep.Contracts != nil)
	if rep.Contracts != nil {
		c := rep.Contracts
		d.int(int64(c.Checked)).int(int64(c.Skipped)).float(c.Confidence).int(int64(len(c.Violations)))
		for _, v := range c.Violations {
			d.str(v)
		}
	}
	d.str("warnings").int(int64(len(rep.Warnings)))
	for _, w := range rep.Warnings {
		d.str(w)
	}
	d.bool(rep.OK())
	return d.sum()
}

// metrics writes a deployment score.
func (d *digester) metrics(m deploy.Metrics) *digester {
	d.int(int64(m.ECUs)).float(m.Harness).float(m.MaxLoad).float(m.LoadVar).float(m.Survivability).bool(m.Feasible)
	d.int(int64(len(m.Violations)))
	for _, v := range m.Violations {
		d.str(v)
	}
	return d
}

// placementDigest digests a replica placement: the chosen spec, the
// materialized components, the refined mapping and its score.
func placementDigest(pl *deploy.Placement) string {
	d := newDigester()
	names := make([]string, 0, len(pl.Replicas))
	for n := range pl.Replicas {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		d.str(n).int(int64(pl.Replicas[n])).str(pl.Modes[n].String())
	}
	d.str("components").int(int64(len(pl.System.Components)))
	for _, c := range pl.System.Components {
		d.str(c.Name)
	}
	d.mapping(pl.System.Mapping).metrics(pl.Metrics).int(int64(pl.Evaluated))
	return d.sum()
}

// platformDigest digests a simulated platform's outcome: the response
// statistics of every runnable and message source, every CAN bus's load
// and the number of kernel events executed.
func platformDigest(p *rte.Platform) string {
	d := newDigester()
	sources := map[string]bool{}
	for _, rec := range p.Trace.Records {
		sources[rec.Source] = true
	}
	names := make([]string, 0, len(sources))
	for s := range sources {
		names = append(names, s)
	}
	sort.Strings(names)
	for _, s := range names {
		st := trace.Summarize(p.Trace, s)
		d.str(s).int(int64(st.N)).int(int64(st.Min)).int(int64(st.Max)).int(int64(st.Mean)).int(int64(st.StdDev))
		d.int(int64(st.P50)).int(int64(st.P95)).int(int64(st.P99)).int(int64(st.Jitter))
		d.int(int64(st.MissCount)).int(int64(st.AbortCount)).int(int64(st.SampleCount))
	}
	busDigest(d, p)
	return d.sum()
}

// streamDigest is the cheap form of platformDigest for repeated checks:
// the whole trace record stream in order (equal streams give equal
// statistics), the bus loads and the event count.
func streamDigest(p *rte.Platform) string {
	d := newDigester()
	d.int(int64(len(p.Trace.Records)))
	for _, rec := range p.Trace.Records {
		d.int(int64(rec.At)).int(int64(rec.Kind)).str(rec.Source).int(rec.Job).str(rec.Info)
	}
	busDigest(d, p)
	return d.sum()
}

func busDigest(d *digester, p *rte.Platform) {
	for _, b := range p.Sys.Buses {
		if bus := p.CANBus(b.Name); bus != nil {
			d.str(b.Name).float(bus.Load()).int(bus.Retransmissions())
		}
	}
	d.int(int64(p.K.Executed()))
}
