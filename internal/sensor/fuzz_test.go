package sensor

import (
	"encoding/binary"
	"math"
	"testing"
)

// refsFromBytes decodes fuzz input into a reference-current ladder: each
// 8-byte chunk is one float64, bit pattern taken verbatim so NaNs,
// infinities, subnormals, and negative zero all appear.
func refsFromBytes(data []byte) []float64 {
	refs := make([]float64, 0, len(data)/8)
	for len(data) >= 8 {
		refs = append(refs, math.Float64frombits(binary.LittleEndian.Uint64(data[:8])))
		data = data[8:]
	}
	return refs
}

func refsToBytes(refs []float64) []byte {
	b := make([]byte, 0, 8*len(refs))
	for _, v := range refs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// FuzzCalibrate drives CalibrateWith with arbitrary reference currents:
// it must never panic, and a calibration it accepts must be entirely
// finite — fit coefficients, R^2, and every conversion over the ADC's
// code range.
func FuzzCalibrate(f *testing.F) {
	f.Add(int64(42), refsToBytes(ReferenceCurrents()))
	f.Add(int64(1), refsToBytes([]float64{0.3, 3.0}))
	f.Add(int64(2), refsToBytes([]float64{math.NaN(), 1, 2}))
	f.Add(int64(3), refsToBytes([]float64{math.Inf(1), math.Inf(-1)}))
	f.Add(int64(4), refsToBytes([]float64{math.MaxFloat64, -math.MaxFloat64, 1}))
	f.Add(int64(5), refsToBytes([]float64{1, 1, 1}))      // degenerate: one code
	f.Add(int64(6), refsToBytes([]float64{0.5}))          // too few points
	f.Add(int64(7), refsToBytes(nil))                     // empty
	f.Add(int64(8), refsToBytes([]float64{-0.0, 5e-324})) // signed zero, subnormal

	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		refs := refsFromBytes(data)
		s := New(5.0, seed)
		cal, err := s.CalibrateWith(refs)
		if err != nil {
			return // rejection is always acceptable; panicking is not
		}
		finite := func(name string, v float64) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("accepted calibration has non-finite %s = %v (refs %v)", name, v, refs)
			}
		}
		finite("slope", cal.CodeToAmps.Slope)
		finite("intercept", cal.CodeToAmps.Intercept)
		finite("R2", cal.R2)
		if !cal.Valid() {
			t.Fatalf("nil error but R^2 %v below threshold (refs %v)", cal.R2, refs)
		}
		if cal.Points != len(refs) {
			t.Fatalf("Points = %d, want %d", cal.Points, len(refs))
		}
		// Every code the 10-bit logger can emit must convert to finite
		// amps and watts.
		for _, code := range []int{0, 1, 511, 1022, 1023} {
			finite("Amps", cal.Amps(code))
			finite("Watts", cal.Watts(code))
		}
	})
}

// roundConvert is ADC.Convert's earlier formula, int(math.Round(x))
// clamped to [0, levels]; FuzzConvert holds the guarded form to it.
func roundConvert(a ADC, volts float64) int {
	levels := (1 << a.Bits) - 1
	code := int(math.Round(volts / a.VRef * float64(levels)))
	if code < 0 {
		code = 0
	}
	if code > levels {
		code = levels
	}
	return code
}

// FuzzConvert checks the guarded int(x+0.5) quantizer against the
// math.Round formula on every input where that formula is defined: x
// below 2^63 (above it, int(math.Round(x)) is platform-dependent — on
// amd64 it wraps to MinInt64 and clamped to 0, the over-range bug
// TestADCConvertSaturatesOverRange pins), NaN included. Above 2^63 the
// code must be full scale.
func FuzzConvert(f *testing.F) {
	f.Add(uint8(10), 5.0, 2.5)
	f.Add(uint8(10), 5.0, 2.5+2.5/1023) // an exact half-code step
	f.Add(uint8(1), 1.0, 0.49999999999999994)
	f.Add(uint8(1), 1.0, 0.5)
	f.Add(uint8(1), 1.0, 1.5)
	f.Add(uint8(10), 5.0, math.NaN())
	f.Add(uint8(10), 5.0, math.Inf(1))
	f.Add(uint8(10), 5.0, math.Inf(-1))
	f.Add(uint8(10), 5.0, -0.0)
	f.Add(uint8(10), 1e-300, 1.0)
	f.Add(uint8(30), 1.0, 1<<52+0.5)

	f.Fuzz(func(t *testing.T, bits uint8, vref, volts float64) {
		a := ADC{Bits: int(bits%30) + 1, VRef: vref}
		levels := (1 << a.Bits) - 1
		got := a.Convert(volts)
		if got < 0 || got > levels {
			t.Fatalf("%+v.Convert(%v) = %d outside [0, %d]", a, volts, got, levels)
		}
		x := volts / a.VRef * float64(levels)
		if x >= 1<<63 {
			if got != levels {
				t.Fatalf("%+v.Convert(%v) = %d, want full scale %d", a, volts, got, levels)
			}
			return
		}
		if want := roundConvert(a, volts); got != want {
			t.Fatalf("%+v.Convert(%v) = %d, math.Round formula gives %d", a, volts, got, want)
		}
	})
}
