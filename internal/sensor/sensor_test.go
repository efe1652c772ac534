package sensor

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestADCConvertBounds(t *testing.T) {
	adc := ADC{Bits: 10, VRef: 5.0}
	if got := adc.Convert(-1); got != 0 {
		t.Fatalf("negative volts -> %d, want 0", got)
	}
	if got := adc.Convert(6); got != 1023 {
		t.Fatalf("over-range volts -> %d, want 1023", got)
	}
	mid := adc.Convert(2.5)
	if mid < 511 || mid > 513 {
		t.Fatalf("2.5V -> %d, want ~512", mid)
	}
}

// TestADCConvertSaturatesOverRange pins the full-scale reading for
// inputs past 2^63 codes, +Inf included: they read full scale, not the
// zero an integer-conversion overflow would clamp to.
func TestADCConvertSaturatesOverRange(t *testing.T) {
	adc := ADC{Bits: 10, VRef: 5.0}
	for _, v := range []float64{math.Inf(1), math.MaxFloat64, 1e300, math.Ldexp(5.0/1023, 63)} {
		if got := adc.Convert(v); got != 1023 {
			t.Errorf("Convert(%v) = %d, want full scale 1023", v, got)
		}
	}
	for _, v := range []float64{math.NaN(), math.Inf(-1), -math.MaxFloat64} {
		if got := adc.Convert(v); got != 0 {
			t.Errorf("Convert(%v) = %d, want 0", v, got)
		}
	}
	// The one nonnegative value below 2^52 where int(x+0.5) and
	// math.Round disagree must still read 0.
	if got := (ADC{Bits: 1, VRef: 1}).Convert(0.49999999999999994); got != 0 {
		t.Errorf("Convert(0.49999999999999994) = %d, want 0", got)
	}
}

func TestADCMonotone(t *testing.T) {
	adc := ADC{Bits: 10, VRef: 5.0}
	prev := -1
	for v := 0.0; v <= 5.0; v += 0.01 {
		code := adc.Convert(v)
		if code < prev {
			t.Fatalf("ADC not monotone at %v: %d < %d", v, code, prev)
		}
		prev = code
	}
}

func TestADCVoltsPerCode(t *testing.T) {
	adc := ADC{Bits: 10, VRef: 5.0}
	want := 5.0 / 1023.0
	if got := adc.VoltsPerCode(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("VoltsPerCode = %v, want %v", got, want)
	}
}

func TestReferenceCurrentsSpanPaperRange(t *testing.T) {
	refs := ReferenceCurrents()
	if len(refs) != 28 {
		t.Fatalf("got %d reference currents, want 28", len(refs))
	}
	if refs[0] != 0.3 || math.Abs(refs[27]-3.0) > 1e-12 {
		t.Fatalf("range = [%v, %v], want [0.3, 3.0]", refs[0], refs[27])
	}
	for i := 1; i < len(refs); i++ {
		if refs[i] <= refs[i-1] {
			t.Fatalf("reference currents not increasing at %d", i)
		}
	}
}

func TestCalibrationMeetsPaperThreshold(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		s := New(5, seed)
		cal, err := s.Calibrate()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if cal.R2 < MinR2 {
			t.Fatalf("seed %d: R2 = %v below paper threshold %v", seed, cal.R2, MinR2)
		}
		if cal.Points != 28 {
			t.Fatalf("calibrated over %d points, want 28", cal.Points)
		}
	}
}

func TestCalibratedReadingAccuracy(t *testing.T) {
	s := New(5, 42)
	cal, err := s.Calibrate()
	if err != nil {
		t.Fatal(err)
	}
	// A calibrated sample should be within ~1.5% at moderate currents,
	// matching the paper's ~1% quantization fidelity claim plus noise.
	for _, amps := range []float64{0.5, 1.0, 2.0, 2.8} {
		const reads = 64
		sum := 0.0
		for i := 0; i < reads; i++ {
			sum += cal.Amps(s.ReadRaw(amps))
		}
		got := sum / reads
		if rel := math.Abs(got-amps) / amps; rel > 0.015 {
			t.Errorf("at %vA: read %vA (rel err %.3f)", amps, got, rel)
		}
	}
}

func TestCalibrationWattsUsesRail(t *testing.T) {
	s := New(30, 7)
	cal, err := s.Calibrate()
	if err != nil {
		t.Fatal(err)
	}
	code := s.ReadRaw(2.0)
	if w, a := cal.Watts(code), cal.Amps(code); math.Abs(w-a*SupplyVolts) > 1e-9 {
		t.Fatalf("Watts=%v, Amps*12=%v", w, a*SupplyVolts)
	}
}

func TestCalibrateWithTooFewPoints(t *testing.T) {
	s := New(5, 1)
	if _, err := s.CalibrateWith([]float64{1.0}); err == nil {
		t.Fatal("want error for single calibration point")
	}
}

func TestSensorSaturates(t *testing.T) {
	s := New(5, 3)
	avg := func(amps float64) float64 {
		const reads = 128
		sum := 0.0
		for i := 0; i < reads; i++ {
			sum += float64(s.ReadRaw(amps))
		}
		return sum / reads
	}
	// Far-over-range input must clamp to the same mean code as the rated
	// maximum (reads are noisy, so compare averages).
	if hi, atMax := avg(100), avg(5); math.Abs(hi-atMax) > 1.0 {
		t.Fatalf("saturated read %v != at-range read %v", hi, atMax)
	}
	if lo, atMin := avg(-100), avg(-5); math.Abs(lo-atMin) > 1.0 {
		t.Fatalf("negative saturation %v != %v", lo, atMin)
	}
}

func TestLoggerAveragesPower(t *testing.T) {
	s := New(30, 11)
	cal, err := s.Calibrate()
	if err != nil {
		t.Fatal(err)
	}
	lg, err := NewLogger(s, cal)
	if err != nil {
		t.Fatal(err)
	}
	// 10 seconds at 24W: current is 2A, well within calibration range.
	for i := 0; i < 500; i++ {
		lg.Sample(24.0, 0.02)
	}
	tr, err := lg.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tr.AvgWatts-24) > 24*0.02 {
		t.Fatalf("AvgWatts = %v, want ~24", tr.AvgWatts)
	}
	if math.Abs(tr.Seconds-10) > 1e-9 {
		t.Fatalf("Seconds = %v, want 10", tr.Seconds)
	}
	if tr.Samples != 500 {
		t.Fatalf("Samples = %d, want 500", tr.Samples)
	}
	if tr.MinWatts > tr.AvgWatts || tr.MaxWatts < tr.AvgWatts {
		t.Fatalf("min/avg/max inconsistent: %v/%v/%v", tr.MinWatts, tr.AvgWatts, tr.MaxWatts)
	}
}

func TestLoggerWeightedAverage(t *testing.T) {
	s := New(30, 13)
	cal, err := s.Calibrate()
	if err != nil {
		t.Fatal(err)
	}
	lg, err := NewLogger(s, cal)
	if err != nil {
		t.Fatal(err)
	}
	// Half the time at 12W, half at 36W -> time-weighted mean 24W.
	for i := 0; i < 200; i++ {
		lg.Sample(12, 0.05)
		lg.Sample(36, 0.05)
	}
	tr, err := lg.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tr.AvgWatts-24) > 24*0.03 {
		t.Fatalf("weighted AvgWatts = %v, want ~24", tr.AvgWatts)
	}
	if tr.StdWatts < 5 {
		t.Fatalf("StdWatts = %v, want bimodal spread ~12", tr.StdWatts)
	}
}

func TestLoggerEmptyFinishErrors(t *testing.T) {
	s := New(5, 17)
	cal, err := s.Calibrate()
	if err != nil {
		t.Fatal(err)
	}
	lg, err := NewLogger(s, cal)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lg.Finish(); err == nil {
		t.Fatal("want error finishing empty logger")
	}
}

func TestLoggerReset(t *testing.T) {
	s := New(5, 19)
	cal, err := s.Calibrate()
	if err != nil {
		t.Fatal(err)
	}
	lg, err := NewLogger(s, cal)
	if err != nil {
		t.Fatal(err)
	}
	lg.Sample(24, 1)
	lg.Reset()
	if _, err := lg.Finish(); err == nil {
		t.Fatal("want error after reset with no samples")
	}
}

func TestLoggerRejectsInvalidCalibration(t *testing.T) {
	s := New(5, 23)
	if _, err := NewLogger(s, Calibration{R2: 0.5}); !errors.Is(err, ErrBadCalibration) {
		t.Fatalf("err = %v, want ErrBadCalibration", err)
	}
	if _, err := NewLogger(nil, Calibration{R2: 1}); err == nil {
		t.Fatal("want error for nil sensor")
	}
}

func TestLoggerIgnoresNonPositiveWeight(t *testing.T) {
	s := New(5, 29)
	cal, err := s.Calibrate()
	if err != nil {
		t.Fatal(err)
	}
	lg, err := NewLogger(s, cal)
	if err != nil {
		t.Fatal(err)
	}
	lg.Sample(24, 0)
	lg.Sample(24, -1)
	if _, err := lg.Finish(); err == nil {
		t.Fatal("zero/negative weights must not count as samples")
	}
}

func TestRigBuildsAndValidates(t *testing.T) {
	machines := []string{"Pentium4", "Core2D65", "i7"}
	rig, err := NewRig(machines, map[string]float64{"i7": 30}, 99)
	if err != nil {
		t.Fatal(err)
	}
	if got := rig.Machines(); len(got) != 3 {
		t.Fatalf("Machines = %v", got)
	}
	m, err := rig.Meter("i7")
	if err != nil {
		t.Fatal(err)
	}
	if m.Sensor.MaxAmps != 30 {
		t.Fatalf("i7 sensor range = %v, want 30", m.Sensor.MaxAmps)
	}
	reports, err := rig.Validate([]float64{0.5, 1.5, 2.5})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reports {
		if r.R2 < MinR2 {
			t.Errorf("%s: R2 = %v", r.Machine, r.R2)
		}
		if r.MaxRelErr > 0.03 {
			t.Errorf("%s: max rel err = %v", r.Machine, r.MaxRelErr)
		}
	}
}

func TestRigUnknownMachine(t *testing.T) {
	rig, err := NewRig([]string{"a"}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rig.Meter("nope"); err == nil {
		t.Fatal("want error for unknown machine")
	}
}

func TestRigValidateRejectsBadInput(t *testing.T) {
	rig, err := NewRig([]string{"a"}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rig.Validate(nil); err == nil {
		t.Fatal("want error for empty validation set")
	}
	if _, err := rig.Validate([]float64{-1}); err == nil {
		t.Fatal("want error for non-positive current")
	}
}

// Property: sensors are deterministic given a seed — the same seed yields
// an identical calibration.
func TestQuickSensorDeterminism(t *testing.T) {
	f := func(seed int64) bool {
		a, errA := New(5, seed).Calibrate()
		b, errB := New(5, seed).Calibrate()
		if (errA == nil) != (errB == nil) {
			return false
		}
		if errA != nil {
			return true
		}
		return a.CodeToAmps == b.CodeToAmps && a.R2 == b.R2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: calibrated readings are monotone in true current across the
// rated range (averaging out noise).
func TestQuickCalibratedMonotone(t *testing.T) {
	f := func(seedRaw uint8) bool {
		s := New(5, int64(seedRaw))
		cal, err := s.Calibrate()
		if err != nil {
			return false
		}
		read := func(amps float64) float64 {
			sum := 0.0
			for i := 0; i < 48; i++ {
				sum += cal.Amps(s.ReadRaw(amps))
			}
			return sum / 48
		}
		prev := read(0.3)
		for amps := 0.8; amps <= 3.0; amps += 0.5 {
			cur := read(amps)
			if cur <= prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
