// Package telemetry is the observability layer of the co-simulation
// stack: a concurrency-safe metrics registry (counters, gauges, and
// fixed-bucket histograms with atomic hot paths), a ring-buffered
// per-control-step trace recorder, exporters for JSONL traces and
// Prometheus-style text exposition, and a deterministic run manifest.
//
// The package is dependency-free (standard library only) and is threaded
// through the stack behind the Sink interface: sim.Runner emits one
// StepSpan per control step, the MPC and its solvers report iteration
// and status counters, the supervisor records ladder transitions, and
// the sweep engine aggregates per-worker metrics into one sweep-level
// snapshot. The zero-cost default is Nop: a sink whose Active method
// reports false, letting hot paths skip span construction entirely, and
// whose instruments are nil pointers with nil-tolerant no-op methods.
//
// Determinism: every metric and span field except wall-clock timing is a
// pure function of the scenario and its seed, so two runs of the same
// spec produce byte-identical exports at any worker count. Wall-clock
// metrics are segregated by naming convention — names ending in
// "_seconds", "_ns", or "_real_time_factor" — and excluded by
// DeterministicFilter, which the run manifest applies to its metric
// snapshot.
package telemetry

// Label is one key=value metric dimension. Sweep-level sinks label
// instruments by scenario, controller, and cycle.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L is shorthand for Label{Key: key, Value: value}.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Sink receives telemetry from one simulation run. Implementations must
// be safe for use from the single goroutine driving the run; distinct
// runs get distinct sinks (sharing one Registry underneath is safe).
//
// Instrument lookups allocate; hot paths should resolve instruments once
// and reuse them across steps.
type Sink interface {
	// Active reports whether the sink records anything. Emitters may
	// (and should) skip building spans and reading clocks when false.
	Active() bool
	// Step records one control-step span.
	Step(s *StepSpan)
	// Counter, Gauge, and Histogram resolve labeled instruments in the
	// sink's registry, with the sink's base labels prepended. They
	// return nil (a no-op instrument) when the sink has no registry.
	Counter(name string, labels ...Label) *Counter
	Gauge(name string, labels ...Label) *Gauge
	Histogram(name string, buckets []float64, labels ...Label) *Histogram
}

// Nop is the zero-cost default sink: inactive, records nothing, and
// hands out nil instruments whose methods are no-ops.
var Nop Sink = nopSink{}

type nopSink struct{}

func (nopSink) Active() bool                      { return false }
func (nopSink) Step(*StepSpan)                    {}
func (nopSink) Counter(string, ...Label) *Counter { return nil }
func (nopSink) Gauge(string, ...Label) *Gauge     { return nil }
func (nopSink) Histogram(string, []float64, ...Label) *Histogram {
	return nil
}

// sink is the live implementation: a registry for metrics, an optional
// recorder for spans, and base labels stamped on every instrument.
type sink struct {
	reg  *Registry
	rec  *StepTrace
	base []Label
}

// NewSink builds a live sink over the given registry and step-trace
// recorder. Either may be nil: a nil registry discards metrics, a nil
// recorder discards spans (but the sink stays Active, so spans are still
// built — use Nop to disable telemetry entirely). Base labels are
// prepended to every instrument lookup.
func NewSink(reg *Registry, rec *StepTrace, base ...Label) Sink {
	return &sink{reg: reg, rec: rec, base: base}
}

func (s *sink) Active() bool { return true }

func (s *sink) Step(span *StepSpan) {
	if s.rec != nil {
		s.rec.Record(*span)
	}
}

func (s *sink) labels(labels []Label) []Label {
	if len(s.base) == 0 {
		return labels
	}
	out := make([]Label, 0, len(s.base)+len(labels))
	out = append(out, s.base...)
	return append(out, labels...)
}

func (s *sink) Counter(name string, labels ...Label) *Counter {
	if s.reg == nil {
		return nil
	}
	return s.reg.Counter(name, s.labels(labels)...)
}

func (s *sink) Gauge(name string, labels ...Label) *Gauge {
	if s.reg == nil {
		return nil
	}
	return s.reg.Gauge(name, s.labels(labels)...)
}

func (s *sink) Histogram(name string, buckets []float64, labels ...Label) *Histogram {
	if s.reg == nil {
		return nil
	}
	return s.reg.Histogram(name, buckets, s.labels(labels)...)
}

// WithLabels wraps a sink so every instrument carries the extra labels —
// e.g. the supervised ladder labels its two MPC stages "mpc-full" and
// "mpc-short" on one shared sink. Wrapping nil or Nop returns Nop; a live
// sink is the only Sink that records, so it is the only one relabelled.
func WithLabels(s Sink, labels ...Label) Sink {
	if s == nil {
		return Nop
	}
	ls, ok := s.(*sink)
	if !ok || len(labels) == 0 {
		return s
	}
	return &sink{reg: ls.reg, rec: ls.rec, base: append(append([]Label{}, ls.base...), labels...)}
}
