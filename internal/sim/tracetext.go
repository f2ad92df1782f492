package sim

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"evclimate/internal/cabin"
)

// The packed wire form of a Trace — what every JSON document holding a
// Trace (journal records, fabric completions, the result cache,
// checkpoints) carries in place of per-value decimal text. It is one
// standard-padded base64 string over little-endian 64-bit words:
//
//	for each float column, in traceColumnNames order:
//	    a length word (nilColumn for a nil column), then its values
//	for Inputs: a length word (nilColumn when nil), then six values
//	    per step, row-major in cabin.Inputs field order
//
// Values travel as their IEEE-754 bits, so a decoded trace is
// bit-identical to the encoded one. Non-finite values are refused, as
// encoding/json refuses them for a plain float. Decoding checks every
// length against the bytes left and refuses trailing bytes, so the
// encoding is canonical: a string that decodes re-encodes to itself.

// nilColumn is the length word of a nil column; an empty non-nil
// column has length word 0.
const nilColumn = ^uint64(0)

// inputsWidth is the number of float64 words per cabin.Inputs step.
const inputsWidth = 6

// traceColumnNames names the float columns in wire order, for errors.
var traceColumnNames = [...]string{
	"Time", "CabinC", "OutsideC", "MotorW", "HeaterW", "CoolerW",
	"FanW", "HVACW", "TotalW", "SoC", "PackC",
}

// traceEncoding is the packed form's base64 alphabet; Strict refuses
// non-zero padding bits, which keeps decoding canonical.
var traceEncoding = base64.StdEncoding.Strict()

// columns returns pointers to the trace's float columns in wire order.
func (t *Trace) columns() [len(traceColumnNames)]*[]float64 {
	return [...]*[]float64{
		&t.Time, &t.CabinC, &t.OutsideC, &t.MotorW, &t.HeaterW, &t.CoolerW,
		&t.FanW, &t.HVACW, &t.TotalW, &t.SoC, &t.PackC,
	}
}

// traceWriter base64-encodes a stream of words straight into the
// output: words collect in a small block whose size is a multiple of
// three bytes, so encoding block by block equals encoding the whole
// stream at once.
type traceWriter struct {
	out   []byte
	n     int // bytes of out filled
	block [768]byte
	nb    int // bytes of block filled
}

func (w *traceWriter) word(v uint64) {
	if w.nb == len(w.block) {
		traceEncoding.Encode(w.out[w.n:], w.block[:])
		w.n += traceEncoding.EncodedLen(len(w.block))
		w.nb = 0
	}
	binary.LittleEndian.PutUint64(w.block[w.nb:], v)
	w.nb += 8
}

// float writes one value, refusing NaN and ±Inf.
func (w *traceWriter) float(v float64, col string, i int) error {
	b := math.Float64bits(v)
	if !finite(b) {
		return fmt.Errorf("sim: trace %s[%d] = %v is not finite", col, i, v)
	}
	w.word(b)
	return nil
}

func (w *traceWriter) flush() {
	traceEncoding.Encode(w.out[w.n:], w.block[:w.nb])
	w.n += traceEncoding.EncodedLen(w.nb)
}

// MarshalText implements encoding.TextMarshaler with the packed wire
// form. It fails on a NaN or infinite value.
func (t Trace) MarshalText() ([]byte, error) {
	return t.AppendText(nil)
}

// AppendText implements encoding.TextAppender: it base64-encodes the
// packed wire form straight onto the end of b and returns the extended
// slice. It fails on a NaN or infinite value, returning b unextended.
func (t Trace) AppendText(b []byte) ([]byte, error) {
	cols := t.columns()
	words := len(cols) + 1 + inputsWidth*len(t.Inputs)
	for _, c := range cols {
		words += len(*c)
	}
	n := len(b)
	w := traceWriter{out: slices.Grow(b, traceEncoding.EncodedLen(8*words)), n: n}
	w.out = w.out[:cap(w.out)]
	for k, c := range cols {
		if *c == nil {
			w.word(nilColumn)
			continue
		}
		w.word(uint64(len(*c)))
		for i, v := range *c {
			if err := w.float(v, traceColumnNames[k], i); err != nil {
				return b[:n], err
			}
		}
	}
	if t.Inputs == nil {
		w.word(nilColumn)
	} else {
		w.word(uint64(len(t.Inputs)))
		for i := range t.Inputs {
			in := &t.Inputs[i]
			for _, v := range [inputsWidth]float64{in.SupplyTempC, in.CoilTempC, in.Recirc,
				in.AirFlowKgS, in.BattHeatW, in.BattChillW} {
				if err := w.float(v, "Inputs", i); err != nil {
					return b[:n], err
				}
			}
		}
	}
	w.flush()
	return w.out[:w.n], nil
}

// traceReader walks the decoded words of a packed trace.
type traceReader struct {
	b   []byte
	off int
}

func (r *traceReader) word() (uint64, error) {
	if len(r.b)-r.off < 8 {
		return 0, errors.New("sim: packed trace is truncated")
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v, nil
}

// count reads a length word: nil reports the nil mark; otherwise n
// records of width words each must fit in the bytes left.
func (r *traceReader) count(width int, col string) (n int, isNil bool, err error) {
	v, err := r.word()
	if err != nil {
		return 0, false, err
	}
	if v == nilColumn {
		return 0, true, nil
	}
	if v > uint64(len(r.b)-r.off)/uint64(8*width) {
		return 0, false, fmt.Errorf("sim: packed trace %s length %d overruns the %d bytes left", col, v, len(r.b)-r.off)
	}
	return int(v), false, nil
}

// finite reports whether float bits b hold neither NaN nor ±Inf.
func finite(b uint64) bool { return b&0x7ff0000000000000 != 0x7ff0000000000000 }

// float decodes one value, refusing a non-finite one; the caller has
// checked that the word is there.
func (r *traceReader) float(col string, i int) (float64, error) {
	b := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	if !finite(b) {
		return 0, fmt.Errorf("sim: packed trace %s[%d] is not finite", col, i)
	}
	return math.Float64frombits(b), nil
}

// UnmarshalText implements encoding.TextUnmarshaler for the packed wire
// form. Any malformed input — bad base64, a length past the end,
// trailing bytes, a non-finite value — is an error; t is left
// unchanged then.
func (t *Trace) UnmarshalText(text []byte) error {
	// base64 skips line breaks; refusing them keeps the form canonical.
	if bytes.ContainsAny(text, "\r\n") {
		return errors.New("sim: packed trace contains a line break")
	}
	raw := make([]byte, traceEncoding.DecodedLen(len(text)))
	n, err := traceEncoding.Decode(raw, text)
	if err != nil {
		return fmt.Errorf("sim: packed trace: %w", err)
	}
	r := traceReader{b: raw[:n]}
	var out Trace
	for k, c := range out.columns() {
		n, isNil, err := r.count(1, traceColumnNames[k])
		if err != nil {
			return err
		}
		if isNil {
			continue
		}
		*c = make([]float64, n)
		for i := range *c {
			if (*c)[i], err = r.float(traceColumnNames[k], i); err != nil {
				return err
			}
		}
	}
	steps, isNil, err := r.count(inputsWidth, "Inputs")
	if err != nil {
		return err
	}
	if !isNil {
		out.Inputs = make([]cabin.Inputs, steps)
		for i := range out.Inputs {
			in := &out.Inputs[i]
			for _, f := range [inputsWidth]*float64{&in.SupplyTempC, &in.CoilTempC, &in.Recirc,
				&in.AirFlowKgS, &in.BattHeatW, &in.BattChillW} {
				if *f, err = r.float("Inputs", i); err != nil {
					return err
				}
			}
		}
	}
	if r.off != len(r.b) {
		return fmt.Errorf("sim: packed trace has %d trailing bytes", len(r.b)-r.off)
	}
	*t = out
	return nil
}
