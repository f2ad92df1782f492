package telemetry

import "sync"

// StepSpan is the trace record of one control step: what the controller
// saw, what it commanded, what its optimizer spent, and where the
// supervision ladder stood. Every field except LatencyNs is a pure
// function of the scenario and its seed.
type StepSpan struct {
	// Job is the sweep job index that produced the span (0 for single
	// runs; the sweep engine tags spans after the job completes).
	Job int `json:"job"`
	// Step is the control-step index within the run.
	Step int `json:"step"`
	// TimeS is the simulation time at the start of the step.
	TimeS float64 `json:"t"`
	// CabinC, OutsideC are the true plant temperatures at the step.
	CabinC   float64 `json:"cabin_c"`
	OutsideC float64 `json:"outside_c"`
	// SoCPct is the battery state of charge after the step; SoCDeltaPct
	// the change over the step (negative = discharge).
	SoCPct      float64 `json:"soc_pct"`
	SoCDeltaPct float64 `json:"soc_delta_pct"`
	// HVACW is the total HVAC electrical power applied over the step.
	HVACW float64 `json:"hvac_w"`
	// SupplyC, CoilC, Recirc, AirFlowKgS are the applied HVAC command.
	SupplyC    float64 `json:"supply_c"`
	CoilC      float64 `json:"coil_c"`
	Recirc     float64 `json:"recirc"`
	AirFlowKgS float64 `json:"airflow_kg_s"`
	// SolverIters and QPIters are the optimizing controller's SQP major
	// and accumulated QP interior-point iterations for the step's solve;
	// SolverStatus its termination status. Empty/zero for non-optimizing
	// controllers.
	SolverIters  int    `json:"solver_iters,omitempty"`
	QPIters      int    `json:"qp_iters,omitempty"`
	SolverStatus string `json:"solver_status,omitempty"`
	// Rung is the supervision-ladder level that produced the applied
	// output (0 = most capable); -1 when the controller is unsupervised.
	// Stage is the rung's name.
	Rung  int    `json:"rung"`
	Stage string `json:"stage,omitempty"`
	// FaultsActive counts fault injections whose schedule window covers
	// this step.
	FaultsActive int `json:"faults_active,omitempty"`
	// PackC is the battery-pack temperature after the step; COP the
	// heat-pump conversion factor applied to cabin heating this step;
	// BattHeatW and BattChillW the battery-branch commands. All zero (and
	// omitted) outside thermal-network runs.
	PackC      float64 `json:"pack_c,omitempty"`
	COP        float64 `json:"cop,omitempty"`
	BattHeatW  float64 `json:"batt_heat_w,omitempty"`
	BattChillW float64 `json:"batt_chill_w,omitempty"`
	// LatencyNs is the wall-clock time of the controller decision
	// (Decide plus actuator clamping). It is the one nondeterministic
	// span field; deterministic exports omit it.
	LatencyNs int64 `json:"latency_ns,omitempty"`
}

// StepTrace is a bounded, concurrency-safe ring buffer of step spans:
// one per run (or per sweep job), sized so a pathological run cannot
// exhaust memory. When full, the oldest spans are overwritten.
type StepTrace struct {
	mu    sync.Mutex
	buf   []StepSpan
	start int // index of the oldest span
	n     int // number of valid spans
}

// DefaultTraceCap is the ring capacity used when NewStepTrace gets a
// nonpositive capacity — enough for a 4-hour drive at a 5 s control
// period.
const DefaultTraceCap = 4096

// NewStepTrace returns a recorder holding the last capacity spans
// (DefaultTraceCap when capacity ≤ 0).
func NewStepTrace(capacity int) *StepTrace {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	return &StepTrace{buf: make([]StepSpan, 0, capacity)}
}

// Record appends one span, overwriting the oldest when full.
func (t *StepTrace) Record(s StepSpan) {
	t.mu.Lock()
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, s)
		t.n++
	} else {
		t.buf[t.start] = s
		t.start = (t.start + 1) % cap(t.buf)
	}
	t.mu.Unlock()
}

// Spans returns the recorded spans oldest-first, as a copy.
func (t *StepTrace) Spans() []StepSpan {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]StepSpan, 0, t.n)
	for i := 0; i < t.n; i++ {
		out = append(out, t.buf[(t.start+i)%len(t.buf)])
	}
	return out
}

// TraceLog accumulates spans across runs in a deterministic order: the
// sweep engine appends each job's spans, in job order, after the sweep
// completes. It is the sweep-level counterpart of the per-run ring.
type TraceLog struct {
	mu    sync.Mutex
	spans []StepSpan
}

// Append adds spans to the log.
func (l *TraceLog) Append(spans ...StepSpan) {
	l.mu.Lock()
	l.spans = append(l.spans, spans...)
	l.mu.Unlock()
}

// Len returns the number of accumulated spans.
func (l *TraceLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}
