// Package autorte is a component-based runtime and analysis toolkit for
// reliable automotive systems: a Go reproduction of "Software Components
// for Reliable Automotive Systems" (Heinecke, Damm, Josko, Metzner,
// Sangiovanni-Vincentelli, Kopetz, Di Natale — DATE 2008).
//
// The library spans the full stack the paper discusses:
//
//   - an AUTOSAR-like meta-model with SWCs, ports, runnables, configuration
//     classes and a JSON exchange format (internal/model),
//   - the Virtual Functional Bus and generated RTE (internal/vfb,
//     internal/rte) over an OSEK-like kernel (internal/osek) with timing
//     protection (internal/protection),
//   - simulated CAN, FlexRay, TTP buses and a TT/best-effort NoC with
//     worst-case analyses (internal/can, internal/flexray, internal/ttp,
//     internal/noc),
//   - contract-based rich interfaces, schedulability and end-to-end
//     latency analysis (internal/contract, internal/sched, internal/e2e),
//   - deployment design-space exploration and fault injection
//     (internal/deploy, internal/fault),
//   - the verification/composability layer tying it together
//     (internal/core) and the reproduction suite (internal/experiments).
//
// Verification and exploration keep what a move leaves unchanged: a
// core.Pipeline pass and each search round run on the caller,
// core.Incremental re-analyzes only the ECUs and buses a mapping change
// dirties, deploy's searches score candidate moves through one delta
// evaluator (deploy.Prepared), and the CAN bus analysis is memoized by a
// canonical key (can.Cache). A bounded worker pool (internal/par) runs
// only independent units — campaign scenarios and annealing restarts —
// with results identical for any worker count. See the Performance sections
// of README.md and EXPERIMENTS.md.
//
// The whole stack is observable through internal/obs — a dependency-free
// metrics registry (Prometheus-text and JSON exporters), a DLT-style
// structured event log, and span tracing exportable as Chrome trace
// JSON. The CAN cache, the worker pool, the kernel, the RTE error
// manager, the verification pipeline and the DSE searches are
// instrumented; autocheck and autosim expose the artifacts via
// -metrics/-trace-out/-dlt. All instrumentation is opt-in and nil-safe
// (see README "Observability").
//
// Everything timed runs on a deterministic virtual-time discrete-event
// kernel (internal/sim): the Go scheduler and garbage collector cannot
// perturb any measured latency. See DESIGN.md and EXPERIMENTS.md.
//
// Those invariants are enforced by autovet (cmd/autovet), the repo's own
// go/analysis suite (internal/analysis): walltime forbids wall-clock
// reads in the virtual-time packages, nilsafe requires nil-receiver
// guards on the opt-in observability types, baregoroutine forbids raw
// goroutines outside internal/par, kindswitch makes switches over
// platform enums exhaustive, and autovetdirective validates the
// //autovet:allow / //autovet:nilsafe directives that document the
// deliberate exceptions. Run it with "make lint" (part of "make check");
// see README "Static analysis".
package autorte
