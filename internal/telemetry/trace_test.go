package telemetry

import (
	"strings"
	"testing"
)

func TestStepTraceRing(t *testing.T) {
	tr := NewStepTrace(4)
	for i := 0; i < 7; i++ {
		tr.Record(StepSpan{Step: i})
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("len = %d, want 4", len(spans))
	}
	for i, s := range spans {
		if s.Step != 3+i {
			t.Errorf("span %d step = %d, want %d (oldest-first)", i, s.Step, 3+i)
		}
	}
}

func TestWriteJSONLDeterministic(t *testing.T) {
	spans := []StepSpan{
		{Job: 1, Step: 0, TimeS: 0, CabinC: 24, Rung: -1, LatencyNs: 12345},
		{Job: 1, Step: 1, TimeS: 5, CabinC: 24.5, Rung: 0, Stage: "mpc-full", SolverIters: 7, SolverStatus: "converged", LatencyNs: 54321},
	}
	var a, b strings.Builder
	if err := WriteJSONL(&a, spans, false); err != nil {
		t.Fatal(err)
	}
	spans[0].LatencyNs = 999 // timing noise must not leak into the export
	if err := WriteJSONL(&b, spans, false); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("deterministic export changed with latency")
	}
	if strings.Contains(a.String(), "latency_ns") {
		t.Error("deterministic export leaked latency_ns")
	}
	if lines := strings.Count(a.String(), "\n"); lines != 2 {
		t.Errorf("got %d lines, want 2", lines)
	}
	if !strings.Contains(a.String(), `"solver_status":"converged"`) {
		t.Errorf("missing solver status in %s", a.String())
	}

	var c strings.Builder
	if err := WriteJSONL(&c, spans, true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(c.String(), "latency_ns") {
		t.Error("timing export dropped latency_ns")
	}
}

func TestTraceLogAppendOrder(t *testing.T) {
	var l TraceLog
	l.Append(StepSpan{Job: 0, Step: 0}, StepSpan{Job: 0, Step: 1})
	l.Append(StepSpan{Job: 1, Step: 0})
	if l.Len() != 3 {
		t.Fatalf("len = %d", l.Len())
	}
	s := l.spans
	if s[2].Job != 1 {
		t.Errorf("append order broken: %+v", s)
	}
}
