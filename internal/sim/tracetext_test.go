package sim

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"evclimate/internal/cabin"
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
		c[i] = randFloat(rng)
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
		for i := range tr.Inputs {
			tr.Inputs[i] = cabin.Inputs{SupplyTempC: randFloat(rng), CoilTempC: randFloat(rng),
				Recirc: randFloat(rng), AirFlowKgS: randFloat(rng), BattHeatW: randFloat(rng), BattChillW: randFloat(rng)}
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

// TestTraceTextRoundTrip is the packed form's property: seeded traces
// of 0–2000 steps — nil and empty columns, thermal PackC, signed zeros,
// subnormals, ±MaxFloat64 — decode bit-exactly and deep-equal, both
// directly and as a JSON field, and re-encode to the same text;
// AppendText onto a buffer adds exactly MarshalText's bytes.
func TestTraceTextRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	lengths := []int{0, 1, 2, 3, 95, 96, 97, 1323, 2000}
	for trial := 0; trial < 60; trial++ {
		n := rng.Intn(2001)
		if trial < len(lengths) {
			n = lengths[trial]
		}
		tr := randTrace(rng, n)
		text, err := tr.MarshalText()
		if err != nil {
			t.Fatalf("trial %d (n=%d): %v", trial, n, err)
		}
		var back Trace
		if err := back.UnmarshalText(text); err != nil {
			t.Fatalf("trial %d (n=%d): decode: %v", trial, n, err)
		}
		if !sameBits(&tr, &back) || !reflect.DeepEqual(tr, back) {
			t.Fatalf("trial %d (n=%d): decoded trace differs", trial, n)
		}
		again, _ := back.MarshalText()
		if !bytes.Equal(again, text) {
			t.Fatalf("trial %d (n=%d): re-encoding differs", trial, n)
		}
		prefix := []byte("prefix:")
		appended, err := tr.AppendText(prefix[:len(prefix):len(prefix)])
		if err != nil || !bytes.Equal(appended, append(prefix, text...)) {
			t.Fatalf("trial %d (n=%d): AppendText differs from prefix + MarshalText (err %v)", trial, n, err)
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
			t.Fatalf("trial %d (n=%d): JSON round trip differs", trial, n)
		}
	}
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

// packWords encodes raw words the way MarshalText frames them, for
// building malformed inputs.
func packWords(words ...uint64) []byte {
	raw := make([]byte, 8*len(words))
	for i, w := range words {
		binary.LittleEndian.PutUint64(raw[8*i:], w)
	}
	return []byte(base64.StdEncoding.EncodeToString(raw))
}

// TestTraceTextRejectsMalformed: every malformed input is an error —
// never a panic — and leaves the destination unchanged.
func TestTraceTextRejectsMalformed(t *testing.T) {
	good, err := (&Trace{Time: []float64{1, 2}, Inputs: []cabin.Inputs{{Recirc: 0.5}}}).MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	nils := make([]uint64, len(traceColumnNames)+1)
	for i := range nils {
		nils[i] = nilColumn
	}
	withLen := func(k int, v uint64) []byte {
		w := append([]uint64(nil), nils...)
		w[k] = v
		return packWords(w...)
	}
	nanBits := math.Float64bits(math.NaN())
	cases := map[string][]byte{
		"empty":            {},
		"truncated base64": good[:len(good)-3],
		"truncated words":  packWords(nils[:5]...),
		"bad base64":       append([]byte("!"), good[1:]...),
		"line break":       append(append([]byte(nil), good[:8]...), append([]byte("\n"), good[8:]...)...),
		"length past end":  withLen(0, 1<<40),
		"inputs past end":  withLen(len(traceColumnNames), 3),
		"huge length":      withLen(4, 1<<62),
		"trailing bytes":   packWords(append(append([]uint64(nil), nils...), 7)...),
		"non-finite value": packWords(append([]uint64{1, nanBits}, nils[1:]...)...),
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
	if err := tr.UnmarshalText(packWords(nils...)); err != nil || !reflect.DeepEqual(tr, Trace{}) {
		t.Errorf("all-nil trace: %+v, %v", tr, err)
	}
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
