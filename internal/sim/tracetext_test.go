package sim

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"evclimate/internal/cabin"
	"evclimate/internal/control"
	"evclimate/internal/geodata"
)

// edgeFloats are the finite values the packed form must carry bit for
// bit: signed zeros, the subnormal range, and the largest magnitudes.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	0x1p-1023, -0x1p-1050, math.MaxFloat64, -math.MaxFloat64, 1, -1, 0.1, 1e300,
}

// randFloat draws a finite value: mostly ordinary magnitudes, sometimes
// an edge value, sometimes arbitrary finite bits.
func randFloat(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return edgeFloats[rng.Intn(len(edgeFloats))]
	case 1:
		for {
			if v := math.Float64frombits(rng.Uint64()); !math.IsNaN(v) && !math.IsInf(v, 0) {
				return v
			}
		}
	default:
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12)-4))
	}
}

// runFloat draws the next value of a column whose last value is prev:
// in runs of one value as often as not, as trace columns hold them, and
// sometimes the other signed zero.
func runFloat(rng *rand.Rand, prev float64, i int) float64 {
	switch {
	case i > 0 && rng.Intn(2) == 0:
		return prev
	case i > 0 && prev == 0 && rng.Intn(4) == 0:
		return -prev
	}
	return randFloat(rng)
}

// randColumn draws a column of n values; nil and empty columns are
// drawn on purpose, since the two must stay distinct.
func randColumn(rng *rand.Rand, n int) []float64 {
	switch rng.Intn(10) {
	case 0:
		return nil
	case 1:
		return []float64{}
	}
	c := make([]float64, n)
	for i := range c {
		c[i] = runFloat(rng, c[max(i-1, 0)], i)
	}
	return c
}

// randTrace draws a trace whose columns have independent lengths around
// n, with a thermal PackC column half the time.
func randTrace(rng *rand.Rand, n int) Trace {
	var tr Trace
	for k, c := range tr.columns() {
		if k == len(traceColumnNames)-1 && rng.Intn(2) == 0 {
			continue // a cabin-only run: nil PackC
		}
		*c = randColumn(rng, n+rng.Intn(3))
	}
	switch rng.Intn(10) {
	case 0:
	case 1:
		tr.Inputs = []cabin.Inputs{}
	default:
		tr.Inputs = make([]cabin.Inputs, n)
		for f := 0; f < inputsWidth; f++ {
			for i := range tr.Inputs {
				*inputsField(&tr.Inputs[i], f) = runFloat(rng, *inputsField(&tr.Inputs[max(i-1, 0)], f), i)
			}
		}
	}
	return tr
}

// sameBits reports whether two traces hold the same columns — nil-ness,
// lengths and every value's bits.
func sameBits(a, b *Trace) bool {
	ac, bc := a.columns(), b.columns()
	for k := range ac {
		x, y := *ac[k], *bc[k]
		if (x == nil) != (y == nil) || len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
	}
	if (a.Inputs == nil) != (b.Inputs == nil) || len(a.Inputs) != len(b.Inputs) {
		return false
	}
	for i := range a.Inputs {
		x, y := a.Inputs[i], b.Inputs[i]
		for _, p := range [][2]float64{{x.SupplyTempC, y.SupplyTempC}, {x.CoilTempC, y.CoilTempC},
			{x.Recirc, y.Recirc}, {x.AirFlowKgS, y.AirFlowKgS}, {x.BattHeatW, y.BattHeatW}, {x.BattChillW, y.BattChillW}} {
			if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
				return false
			}
		}
	}
	return true
}

// roundTrip checks one trace against the packed form's property: it
// decodes bit-exactly and deep-equal, both directly and as a JSON field,
// and re-encodes to the same text; AppendText onto a buffer adds exactly
// MarshalText's bytes.
func roundTrip(t *testing.T, name string, tr Trace) {
	t.Helper()
	text, err := tr.MarshalText()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var back Trace
	if err := back.UnmarshalText(text); err != nil {
		t.Fatalf("%s: decode: %v", name, err)
	}
	if !sameBits(&tr, &back) || !reflect.DeepEqual(tr, back) {
		t.Fatalf("%s: decoded trace differs", name)
	}
	again, _ := back.MarshalText()
	if !bytes.Equal(again, text) {
		t.Fatalf("%s: re-encoding differs", name)
	}
	prefix := []byte("prefix:")
	appended, err := tr.AppendText(prefix[:len(prefix):len(prefix)])
	if err != nil || !bytes.Equal(appended, append(prefix, text...)) {
		t.Fatalf("%s: AppendText differs from prefix + MarshalText (err %v)", name, err)
	}

	res := Result{Controller: "x", Trace: tr, AvgHVACW: 1.5}
	data, err := json.Marshal(&res)
	if err != nil {
		t.Fatal(err)
	}
	var rback Result
	if err := json.Unmarshal(data, &rback); err != nil {
		t.Fatal(err)
	}
	if !sameBits(&res.Trace, &rback.Trace) || !reflect.DeepEqual(res, rback) {
		t.Fatalf("%s: JSON round trip differs", name)
	}
}

// TestTraceTextRoundTrip is the packed form's property over seeded
// traces of 0–2000 steps — nil and empty columns, runs of one value,
// thermal PackC, signed zeros, subnormals, ±MaxFloat64 — and over two
// simulated ones: a fuzzy-controlled fleet commute and a soaked thermal
// run at 40 °C under the co-scheduling MPC, whose PackC and battery
// heater and chiller columns, nil or zero in a cabin-only run, all
// change along the trace.
func TestTraceTextRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	lengths := []int{0, 1, 2, 3, 7, 8, 9, 17, 95, 96, 97, 1323, 2000}
	for trial := 0; trial < 60; trial++ {
		n := rng.Intn(2001)
		if trial < len(lengths) {
			n = lengths[trial]
		}
		roundTrip(t, fmt.Sprintf("trial %d (n=%d)", trial, n), randTrace(rng, n))
	}
	for _, n := range []int{7, 8, 9, 17} {
		roundTrip(t, fmt.Sprintf("runs (n=%d)", n), runTrace(n))
	}

	planner := &geodata.Planner{
		Terrain: &geodata.Terrain{Seed: 3, ReliefM: 40},
		Climate: &geodata.Climate{Zone: geodata.Temperate},
		Traffic: &geodata.Traffic{},
	}
	route, err := planner.Plan("commute", []geodata.Waypoint{
		{LengthKm: 3, FreeFlowKmh: 60, Stop: true}, {LengthKm: 4, FreeFlowKmh: 110}}, 7, 8)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := route.Profile(1)
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := New(DefaultConfig(prof))
	if err != nil {
		t.Fatal(err)
	}
	res, err := fleet.Run(control.NewFuzzy(hvacModel(t)))
	if err != nil {
		t.Fatal(err)
	}
	roundTrip(t, "fleet", res.Trace)

	thermalRun, err := New(coldThermalConfig(40))
	if err != nil {
		t.Fatal(err)
	}
	if res, err = thermalRun.Run(thermalMPC(t)); err != nil {
		t.Fatal(err)
	}
	var heat, chill bool
	for _, in := range res.Trace.Inputs {
		heat, chill = heat || in.BattHeatW != 0, chill || in.BattChillW != 0
	}
	if len(res.Trace.PackC) == 0 || !heat || !chill {
		t.Fatalf("thermal trace: %d PackC values, battery heat %v, chill %v; want all live",
			len(res.Trace.PackC), heat, chill)
	}
	roundTrip(t, "thermal", res.Trace)
}

// TestTraceTextRefusesNonFinite: NaN and ±Inf anywhere in a trace fail
// the encoding, as json.Marshal of such a float does, and AppendText
// then hands back its buffer unextended.
func TestTraceTextRefusesNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		cases := map[string]Trace{
			"Time":   {Time: []float64{0, bad}},
			"PackC":  {PackC: []float64{bad}},
			"Inputs": {Inputs: []cabin.Inputs{{}, {BattChillW: bad}}},
		}
		for col, tr := range cases {
			if _, err := tr.MarshalText(); err == nil || !strings.Contains(err.Error(), col) {
				t.Errorf("%v in %s: err = %v, want an error naming the column", bad, col, err)
			}
			b := []byte("kept")
			if out, err := tr.AppendText(b); err == nil || string(out) != "kept" {
				t.Errorf("%v in %s: AppendText = %q, %v; want the buffer unextended and an error", bad, col, out, err)
			}
			if _, err := json.Marshal(&Result{Trace: tr}); err == nil {
				t.Errorf("%v in %s: json.Marshal succeeded", bad, col)
			}
		}
	}
}

// packed builds a packed byte stream word by word and flag byte by flag
// byte, for malformed inputs.
type packed []byte

func (p packed) words(vs ...uint64) packed {
	for _, v := range vs {
		p = binary.LittleEndian.AppendUint64(p, v)
	}
	return p
}

func (p packed) flags(c byte) packed { return append(p, c) }

func (p packed) append(q packed) packed { return append(p, q...) }

func (p packed) text() []byte { return []byte(base64.StdEncoding.EncodeToString(p)) }

// nilWords is n nil-column length words.
func nilWords(n int) packed {
	var p packed
	for i := 0; i < n; i++ {
		p = p.words(nilColumn)
	}
	return p
}

// TestTraceTextRejectsMalformed: every malformed input is an error —
// never a panic — and leaves the destination unchanged. Beside bad
// base64 and bad lengths, each packing rule the decoder enforces has a
// case: a column's first value marked as a repeat (in a float column
// and in an Inputs field, which starts its own run), a stored repeat,
// flag bits past a column's end and a non-finite value.
func TestTraceTextRejectsMalformed(t *testing.T) {
	good, err := (&Trace{Time: []float64{1, 2}, Inputs: []cabin.Inputs{{Recirc: 0.5}}}).MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	cols := len(traceColumnNames)
	withLen := func(k int, v uint64) []byte {
		return nilWords(k).words(v).append(nilWords(cols - k)).text()
	}
	// time1 is a Time column of n values in one group, with the given
	// flag byte and stored words, then the other columns nil.
	time1 := func(n uint64, flags byte, vs ...uint64) []byte {
		return packed{}.words(n).flags(flags).words(vs...).append(nilWords(cols)).text()
	}
	one := math.Float64bits(1)
	inputs := nilWords(cols).words(1)
	for f := 0; f < inputsWidth-1; f++ {
		inputs = inputs.flags(0).words(one)
	}
	cases := map[string][]byte{
		"empty":                {},
		"truncated base64":     good[:len(good)-3],
		"truncated words":      nilWords(5).text(),
		"bad base64":           append([]byte("!"), good[1:]...),
		"line break":           append(append([]byte(nil), good[:8]...), append([]byte("\n"), good[8:]...)...),
		"length past end":      withLen(0, 1<<40),
		"groups past end":      withLen(0, 700),
		"inputs past end":      withLen(cols, 3),
		"huge length":          withLen(4, 1<<62),
		"truncated group":      packed{}.words(2).flags(0).words(one).text(),
		"trailing bytes":       nilWords(cols + 1).words(7).text(),
		"non-finite value":     time1(1, 0, math.Float64bits(math.NaN())),
		"first value repeat":   time1(1, 1),
		"stored repeat":        time1(2, 0, one, one),
		"flag past end":        time1(2, 0x06, one),
		"inputs field repeat":  inputs.flags(1).text(),
		"inputs value missing": inputs.flags(0).text(),
	}
	for name, text := range cases {
		tr := Trace{CabinC: []float64{42}}
		if err := tr.UnmarshalText(text); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
		if len(tr.CabinC) != 1 || tr.CabinC[0] != 42 || tr.Time != nil {
			t.Errorf("%s: failed decode changed the destination", name)
		}
	}
	var tr Trace
	if err := tr.UnmarshalText(nilWords(cols + 1).text()); err != nil || !reflect.DeepEqual(tr, Trace{}) {
		t.Errorf("all-nil trace: %+v, %v", tr, err)
	}
	if err := tr.UnmarshalText(inputs.flags(0).words(one).text()); err != nil || tr.Inputs[0].BattChillW != 1 {
		t.Errorf("one-step Inputs: %+v, %v", tr, err)
	}
}

// runTrace is a trace of n steps made of runs: a constant column, runs
// of five that cross the groups' boundaries, +0 followed by −0 and back,
// and constant Inputs fields.
func runTrace(n int) Trace {
	tr := Trace{Time: make([]float64, n), CabinC: make([]float64, n), HeaterW: make([]float64, n),
		CoolerW: make([]float64, n), Inputs: make([]cabin.Inputs, n)}
	for i := 0; i < n; i++ {
		tr.Time[i] = float64(i)
		tr.CabinC[i] = 24
		tr.HeaterW[i] = float64(i / 5)
		if i%3 == 1 {
			tr.CoolerW[i] = math.Copysign(0, -1)
		}
		tr.Inputs[i] = cabin.Inputs{SupplyTempC: 30, Recirc: float64(i / 9)}
	}
	return tr
}

// FuzzTraceText hardens decoding against arbitrary text — a crashed
// process's journal is untrusted input. Invariants: no panics, and any
// text that decodes re-encodes to exactly itself (the form is
// canonical, which the fabric's record checksums rely on).
func FuzzTraceText(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 5, 40} {
		tr := randTrace(rng, n)
		text, err := tr.MarshalText()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(text)
		f.Add(text[:len(text)/2])
	}
	for _, n := range []int{7, 8, 9, 17} {
		text, err := runTrace(n).MarshalText()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(text)
	}
	f.Add([]byte(""))
	f.Add([]byte("////////////////"))
	f.Fuzz(func(t *testing.T, text []byte) {
		var tr Trace
		if err := tr.UnmarshalText(text); err != nil {
			return
		}
		again, err := tr.MarshalText()
		if err != nil {
			t.Fatalf("decoded trace does not re-encode: %v", err)
		}
		if !bytes.Equal(again, text) {
			t.Fatalf("non-canonical text decoded:\n in  %q\n out %q", text, again)
		}
	})
}
