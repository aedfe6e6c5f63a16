package fault

import (
	"fmt"
	"sort"

	"autorte/internal/rte"
	"autorte/internal/sim"
)

// Replica names one input of a redundant set: a required port element fed
// by one replicated producer.
type Replica struct {
	Port, Elem string
}

// Voter returns the behaviour of a 2-out-of-3 (or N-replica median) voter
// component — the classic design pattern for highly reliable components
// §1's dependability discussion calls for. Each execution reads every
// replica, outputs the median on (outPort, outElem), and reports a sensor
// error (once per episode) when any replica deviates from the median by
// more than tolerance: the faulty replica is out-voted AND diagnosed.
func Voter(replicas []Replica, outPort, outElem string, tolerance float64) (rte.Behavior, error) {
	if len(replicas) < 2 {
		return nil, fmt.Errorf("fault: voter needs at least two replicas")
	}
	if tolerance < 0 {
		return nil, fmt.Errorf("fault: negative tolerance")
	}
	reported := make([]bool, len(replicas))
	return func(c *rte.Context) {
		vals := make([]float64, 0, len(replicas))
		idx := make([]int, 0, len(replicas))
		for i, r := range replicas {
			if v, ok := c.ReadOK(r.Port, r.Elem); ok {
				vals = append(vals, v)
				idx = append(idx, i)
			}
		}
		if len(vals) < 2 {
			return // not enough data yet to vote
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		median := sorted[len(sorted)/2]
		//autovet:allow e2eflow the vote is the qualification: median masking over independent replicas tolerates a corrupted input
		c.Write(outPort, outElem, median)
		for j, v := range vals {
			i := idx[j]
			dev := v - median
			if dev < 0 {
				dev = -dev
			}
			if dev > tolerance {
				if !reported[i] {
					reported[i] = true
					c.Report(rte.ErrSensor, fmt.Sprintf("replica %s.%s deviates from vote", replicas[i].Port, replicas[i].Elem))
				}
			} else {
				reported[i] = false
			}
		}
	}, nil
}

// DriftSensor builds a producer whose output drifts away linearly from
// time at on — the slow-degradation fault a voter must out-vote (unlike
// Noise, drifting values stay individually plausible, so a simple range
// monitor cannot catch them early). value computes the healthy physical
// reading; the drifted result is published on every declared write.
func DriftSensor(at sim.Time, ratePerSec float64, value func(c *rte.Context) float64) rte.Behavior {
	return func(c *rte.Context) {
		v := value(c)
		if c.Now() >= at {
			v += ratePerSec * float64(c.Now()-at) / float64(sim.Second)
		}
		for _, w := range c.Writes() {
			c.Write(w.Port, w.Elem, v)
		}
	}
}
