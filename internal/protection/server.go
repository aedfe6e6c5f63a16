// Package protection implements the timing-isolation mechanisms the paper
// calls for in §1 and §4: reservation servers (polling, deferrable,
// sporadic) that bound the CPU consumption of a group of tasks, and static
// time-triggered dispatch tables that partition the timeline. The temporal
// firewall for state messages across partition boundaries is the RTE's
// state-message store (rte.Context.ReadOK and Age).
//
// All mechanisms plug into the osek CPU through the osek.Throttle
// interface, so the same task set can be simulated with and without
// isolation — which is exactly experiment E1/E2's comparison.
package protection

import (
	"fmt"

	"autorte/internal/sim"
)

// ServerKind selects the replenishment policy of a reservation server.
type ServerKind uint8

const (
	// Deferrable preserves unused budget until the next full replenishment.
	Deferrable ServerKind = iota
	// Polling discards the budget whenever the server has no pending work
	// at (or after) a replenishment instant.
	Polling
	// Sporadic replenishes each consumed chunk one period after the chunk's
	// consumption started (simplified sporadic server).
	Sporadic
)

func (k ServerKind) String() string {
	switch k {
	case Deferrable:
		return "deferrable"
	case Polling:
		return "polling"
	default:
		return "sporadic"
	}
}

// Server is a CPU reservation: at most Budget execution every Period for
// the tasks it governs. It implements osek.Throttle.
type Server struct {
	Name   string
	Kind   ServerKind
	Budget sim.Duration
	Period sim.Duration

	k       *sim.Kernel
	notify  func()
	budget  sim.Duration
	pending bool
	// replenishments counts full replenishment instants (observability).
	replenishments int64
}

// NewServer validates parameters and creates a server.
func NewServer(name string, kind ServerKind, budget, period sim.Duration) (*Server, error) {
	if budget <= 0 || period <= 0 {
		return nil, fmt.Errorf("protection: server %s: budget and period must be positive", name)
	}
	if budget > period {
		return nil, fmt.Errorf("protection: server %s: budget %v exceeds period %v", name, budget, period)
	}
	return &Server{Name: name, Kind: kind, Budget: budget, Period: period}, nil
}

// Utilization returns the reserved fraction Budget/Period.
func (s *Server) Utilization() float64 { return float64(s.Budget) / float64(s.Period) }

// Replenishments returns how many full replenishment instants occurred.
func (s *Server) Replenishments() int64 { return s.replenishments }

// Bind implements osek.Throttle.
func (s *Server) Bind(k *sim.Kernel, notify func()) {
	s.k = k
	s.notify = notify
	s.budget = s.Budget
	if s.Kind == Polling {
		// A polling server starts idle: its budget is only granted at
		// replenishment instants where work is pending.
		s.budget = 0
	}
	if s.Kind != Sporadic {
		s.scheduleReplenish(s.Period)
	}
}

func (s *Server) scheduleReplenish(at sim.Time) {
	// Replenishment runs before task releases at the same instant
	// (priority 1 < the CPU's release priority 10) so a server task
	// activated exactly at the boundary sees a full budget.
	s.k.AtPrio(at, 1, func() {
		// First notify lets the CPU charge any in-flight execution against
		// the OLD budget (reschedule charges up to now); only then is the
		// budget reset. A second notify re-dispatches with fresh supply.
		s.notify()
		s.replenishments++
		s.budget = s.Budget
		if s.Kind == Polling && !s.pending {
			s.budget = 0
		}
		s.scheduleReplenish(at + s.Period)
		s.notify()
	})
}

// Available implements osek.Throttle.
func (s *Server) Available(sim.Time) sim.Duration { return s.budget }

// Charge implements osek.Throttle.
func (s *Server) Charge(now sim.Time, d sim.Duration) {
	s.budget -= d
	if s.budget < 0 {
		s.budget = 0
	}
	if s.Kind == Sporadic {
		// Simplified sporadic server: the consumed chunk comes back one
		// period after its consumption began.
		start := now - d
		s.k.At(start+s.Period, func() {
			s.budget += d
			if s.budget > s.Budget {
				s.budget = s.Budget
			}
			s.notify()
		})
	}
}

// Pending implements osek.Throttle.
func (s *Server) Pending(now sim.Time, pending bool) {
	s.pending = pending
	if s.Kind == Polling && !pending {
		// A polling server drains its budget the moment it idles.
		s.budget = 0
	}
}
