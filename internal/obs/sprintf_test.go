package obs

import (
	"errors"
	"fmt"
	"testing"
)

type rung int

func (r rung) String() string { return [...]string{"retry", "restart", "reset"}[r] }

type node struct{ name string }

func (n *node) String() string { return n.name } // panics on a nil *node

type kind string

type pretty struct{}

func (pretty) Format(f fmt.State, verb rune) { fmt.Fprint(f, "formatted") }
func (pretty) String() string                { return "stringer" }

// TestSprintfMatchesFmt holds Emitf's fast formatter to fmt.Sprintf on
// the lines it renders itself and on every case it must hand to fmt.
func TestSprintfMatchesFmt(t *testing.T) {
	var nilNode *node
	var nilErr error
	cases := []struct {
		format string
		args   []any
	}{
		{"platform started: %d ECUs, %d buses, %d tasks", []any{3, 2, 40}},
		{"%s: rung %s attempt %d", []any{"Sensor", rung(1), 2}},
		{"%s: failover failed: %v", []any{"Ctrl", errors.New("no standby")}},
		{"mode switch -> %s (%d subscribed handlers)", []any{"limp", int64(-7)}},
		{"quorum %v/%v", []any{uint64(3), 4}},
		{"plain text", nil},
		{"", nil},
		{"%d", []any{"not a number"}},
		{"%s", []any{42}},
		{"%5d|%-4s|%x|%q|%%", []any{7, "a", 255, "q"}},
		{"%s %s", []any{"missing"}},
		{"%s", []any{"extra", 1}},
		{"trailing %", []any{}},
		{"%v %s", []any{nilNode, &node{"n1"}}},
		{"%v", []any{nilErr}},
		{"%s", []any{pretty{}}},
		{"%d", []any{rung(2)}},
		{"%v", []any{1.5}},
		{"%s", []any{[]byte("bytes")}},
		{"%s from %v, %d/%v", []any{kind("stale"), kind("Sensor"), uint8(3), int32(-4)}},
		{"%d %v", []any{uintptr(9), true}},
	}
	for _, c := range cases {
		if got, want := sprintf(c.format, c.args), fmt.Sprintf(c.format, c.args...); got != want {
			t.Errorf("sprintf(%q, %v) = %q, fmt.Sprintf says %q", c.format, c.args, got, want)
		}
	}
}
