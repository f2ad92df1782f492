package sim

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"evclimate/internal/cabin"
)

// The packed wire form of a Trace — what every JSON document holding a
// Trace (journal records, fabric completions, the result cache,
// checkpoints) carries in place of per-value decimal text. It is one
// standard-padded base64 string over a byte stream of little-endian
// 64-bit words and flag bytes:
//
//	for each float column, in traceColumnNames order:
//	    a length word (nilColumn for a nil column), then its values
//	for Inputs: a length word (nilColumn when nil), then the steps'
//	    values of each cabin.Inputs field in turn, as six columns
//
// A column's values travel in groups of up to eight: one flag byte,
// whose bit i marks value i of the group as having the same bits as the
// value before it, then the IEEE-754 bits of each value not so marked.
// Trace columns hold long runs of one value (a saturated actuator, an
// idle heater, a coasting motor), which then cost one bit a step here.
// Repeats compare bits, never values, so +0 after −0 is stored, and a
// decoded trace is bit-identical to the encoded one. It is a plain
// cousin of the XOR-with-previous float compression of Gorilla
// (Pelkonen et al., VLDB 2015).
//
// Non-finite values are refused, as encoding/json refuses them for a
// plain float. Decoding refuses everything the encoder never writes: a
// column's first value marked as a repeat, a stored value equal to the
// one before it, flag bits past a column's end, a length that overruns
// the bytes left and trailing bytes. The encoding is so canonical: a
// string that decodes re-encodes to itself.

// nilColumn is the length word of a nil column; an empty non-nil
// column has length word 0.
const nilColumn = ^uint64(0)

// noPrev is the bits a column's first value is compared against: a NaN,
// which no stored value equals.
const noPrev = ^uint64(0)

// inputsWidth is the number of float64 fields per cabin.Inputs step.
const inputsWidth = 6

// groupLen is the number of values one flag byte covers.
const groupLen = 8

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

// inputsField points at field f of in, in wire order.
func inputsField(in *cabin.Inputs, f int) *float64 {
	switch f {
	case 0:
		return &in.SupplyTempC
	case 1:
		return &in.CoilTempC
	case 2:
		return &in.Recirc
	case 3:
		return &in.AirFlowKgS
	case 4:
		return &in.BattHeatW
	default:
		return &in.BattChillW
	}
}

// blockLen is the size of traceWriter's staging block: a multiple of
// three bytes, so encoding block by block equals encoding the stream at
// once.
const blockLen = 1536

// traceWriter base64-encodes the packed byte stream straight onto the
// output through a small staging block, which has room past blockLen
// for one group.
type traceWriter struct {
	out   []byte
	block [blockLen + 1 + 8*groupLen]byte
	nb    int // bytes of block filled; below blockLen between writes
}

// spill encodes a full block and keeps the bytes written past it.
func (w *traceWriter) spill() {
	if w.nb >= blockLen {
		w.out = traceEncoding.AppendEncode(w.out, w.block[:blockLen])
		w.nb = copy(w.block[:], w.block[blockLen:w.nb])
	}
}

func (w *traceWriter) word(v uint64) {
	binary.LittleEndian.PutUint64(w.block[w.nb:], v)
	w.nb += 8
	w.spill()
}

func (w *traceWriter) flush() {
	w.out = traceEncoding.AppendEncode(w.out, w.block[:w.nb])
}

// group writes up to eight values of a column whose value i0 is vs[0]:
// the flag byte, then the bits of each value that differs from the one
// before it. prev is the bits of the column's previous value (noPrev
// before its first), and group returns the bits of its last. It refuses
// NaN and ±Inf.
func (w *traceWriter) group(vs []float64, prev uint64, col string, i0 int) (uint64, error) {
	var flags byte
	nb := w.nb + 1 // the flag byte goes at w.nb once it is known
	for k, v := range vs {
		b := math.Float64bits(v)
		if !finite(b) {
			return 0, fmt.Errorf("sim: trace %s[%d] = %v is not finite", col, i0+k, v)
		}
		if b == prev {
			flags |= 1 << k
			continue
		}
		binary.LittleEndian.PutUint64(w.block[nb:], b)
		nb += 8
		prev = b
	}
	w.block[w.nb] = flags
	w.nb = nb
	w.spill()
	return prev, nil
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
	n := len(b)
	w := traceWriter{out: b}
	for k, c := range t.columns() {
		if *c == nil {
			w.word(nilColumn)
			continue
		}
		w.word(uint64(len(*c)))
		prev := noPrev
		for i := 0; i < len(*c); i += groupLen {
			var err error
			if prev, err = w.group((*c)[i:min(i+groupLen, len(*c))], prev, traceColumnNames[k], i); err != nil {
				return b[:n], err
			}
		}
	}
	if t.Inputs == nil {
		w.word(nilColumn)
	} else {
		w.word(uint64(len(t.Inputs)))
		var vs [groupLen]float64
		for f := 0; f < inputsWidth; f++ {
			prev := noPrev
			for i := 0; i < len(t.Inputs); i += groupLen {
				g := vs[:min(groupLen, len(t.Inputs)-i)]
				for k := range g {
					g[k] = *inputsField(&t.Inputs[i+k], f)
				}
				var err error
				if prev, err = w.group(g, prev, "Inputs", i); err != nil {
					return b[:n], err
				}
			}
		}
	}
	w.flush()
	return w.out, nil
}

// traceReader walks the decoded bytes of a packed trace.
type traceReader struct {
	b   []byte
	off int
}

// count reads a length word: nil reports the nil mark; otherwise width
// columns of n values each must fit in the bytes left, at their
// smallest: a flag byte per group and the first value's word.
func (r *traceReader) count(width int, col string) (n int, isNil bool, err error) {
	left := len(r.b) - r.off
	if left < 8 {
		return 0, false, errors.New("sim: packed trace is truncated")
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	left -= 8
	if v == nilColumn {
		return 0, true, nil
	}
	overrun := v > uint64(left)*groupLen
	if !overrun && v > 0 {
		overrun = uint64(width)*((v+groupLen-1)/groupLen+8) > uint64(left)
	}
	if overrun {
		return 0, false, fmt.Errorf("sim: packed trace %s length %d overruns the %d bytes left", col, v, left)
	}
	return int(v), false, nil
}

// finite reports whether float bits b hold neither NaN nor ±Inf.
func finite(b uint64) bool { return b&0x7ff0000000000000 != 0x7ff0000000000000 }

// group decodes one group of len(dst) values of a column whose value i0
// is dst[0], refusing what the encoder never writes. prev is the bits of
// the column's previous value (noPrev before its first), and group
// returns the bits of its last.
func (r *traceReader) group(dst []float64, prev uint64, col string, i0 int) (uint64, error) {
	if r.off >= len(r.b) {
		return 0, errors.New("sim: packed trace is truncated")
	}
	flags := r.b[r.off]
	r.off++
	if flags>>len(dst) != 0 {
		return 0, fmt.Errorf("sim: packed trace %s[%d:] flags values past the column's end", col, i0)
	}
	for k := range dst {
		if flags&(1<<k) != 0 {
			if prev == noPrev {
				return 0, fmt.Errorf("sim: packed trace %s[0] is marked as a repeat", col)
			}
		} else {
			if len(r.b)-r.off < 8 {
				return 0, errors.New("sim: packed trace is truncated")
			}
			b := binary.LittleEndian.Uint64(r.b[r.off:])
			r.off += 8
			if !finite(b) {
				return 0, fmt.Errorf("sim: packed trace %s[%d] is not finite", col, i0+k)
			}
			if b == prev {
				return 0, fmt.Errorf("sim: packed trace %s[%d] stores a repeat", col, i0+k)
			}
			prev = b
		}
		dst[k] = math.Float64frombits(prev)
	}
	return prev, nil
}

// UnmarshalText implements encoding.TextUnmarshaler for the packed wire
// form. Any malformed input — bad base64, a length past the end,
// trailing bytes, a non-finite value, a non-canonical repeat flag — is
// an error; t is left unchanged then.
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
		prev := noPrev
		for i := 0; i < n; i += groupLen {
			if prev, err = r.group((*c)[i:min(i+groupLen, n)], prev, traceColumnNames[k], i); err != nil {
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
		var vs [groupLen]float64
		for f := 0; f < inputsWidth; f++ {
			prev := noPrev
			for i := 0; i < steps; i += groupLen {
				g := vs[:min(groupLen, steps-i)]
				if prev, err = r.group(g, prev, "Inputs", i); err != nil {
					return err
				}
				for k, v := range g {
					*inputsField(&out.Inputs[i+k], f) = v
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
