package can

import (
	"sort"
	"strconv"
)

// sortedByID reports whether msgs already arrive in the priority order
// Analyze uses; the verifier's message builders emit ID-ordered sets, so
// the sort copy is skipped for them.
func sortedByID(msgs []*Message) bool {
	for i := 1; i < len(msgs); i++ {
		if msgs[i-1].ID > msgs[i].ID {
			return false
		}
	}
	return true
}

// appendKey serializes the analysis-relevant view of a message set under a
// configuration into buf: frames sorted by ID — the priority order Analyze
// uses — with every field the recurrence reads. OnDeliver callbacks and
// runtime bookkeeping are irrelevant to the analysis and excluded.
func appendKey(buf []byte, cfg Config, msgs []*Message) []byte {
	byPrio := msgs
	if !sortedByID(msgs) {
		byPrio = append([]*Message(nil), msgs...)
		sort.SliceStable(byPrio, func(i, j int) bool { return byPrio[i].ID < byPrio[j].ID })
	}
	buf = strconv.AppendInt(buf, cfg.BitRate, 10)
	if cfg.Extended {
		buf = append(buf, 'x')
	}
	buf = append(buf, '|')
	for _, m := range byPrio {
		buf = strconv.AppendInt(buf, int64(len(m.Name)), 10)
		buf = append(buf, ':')
		buf = append(buf, m.Name...)
		buf = strconv.AppendUint(buf, uint64(m.ID), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(m.DLC), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(m.Period), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(m.Jitter), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(m.Deadline), 10)
		buf = append(buf, ';')
	}
	return buf
}

// Memo memoizes Analyze by message-set key for one owner: a walk that
// re-verifies mapping after mapping revisits the same bus frame sets, and
// the memo collapses the repeats to a lookup. The zero value is empty and
// ready. Not safe for concurrent use.
type Memo struct {
	m   map[string][]Response
	key []byte // scratch: a lookup builds its key without allocating
}

// Analyze is the memoized equivalent of the package function Analyze;
// hit reports whether the responses came from the memo. The returned
// slice is memo-owned and must not be mutated, and its Message pointers
// are those of whichever key-equal set first filled the entry — match
// results by Name, not by pointer. Errors are returned but not stored.
func (c *Memo) Analyze(cfg Config, msgs []*Message) (rs []Response, hit bool, err error) {
	c.key = appendKey(c.key[:0], cfg, msgs)
	if rs, ok := c.m[string(c.key)]; ok { // map index on converted bytes: no allocation
		return rs, true, nil
	}
	rs, err = Analyze(cfg, msgs)
	if err != nil {
		return nil, false, err
	}
	if c.m == nil {
		c.m = map[string][]Response{}
	}
	c.m[string(c.key)] = rs
	return rs, false, nil
}

// Len reports the number of distinct message sets memoized.
func (c *Memo) Len() int { return len(c.m) }
