package alert

import (
	"math"
	"testing"
)

// TestSeverityIsTheOneStateEncoding pins the encoding every consumer
// shares: severity rises inactive < resolved < pending < firing, the
// gauge value decodes straight back to the state, the text form
// round-trips, and a gauge value that is no state is rejected.
func TestSeverityIsTheOneStateEncoding(t *testing.T) {
	order := []AlertState{StateInactive, StateResolved, StatePending, StateFiring}
	for i, s := range order {
		if s.Severity() != i {
			t.Errorf("%v.Severity() = %d, want %d", s, s.Severity(), i)
		}
		if back, ok := StateOfSeverity(float64(s.Severity())); !ok || back != s {
			t.Errorf("gauge %d decodes to %v,%v, want %v,true", s.Severity(), back, ok, s)
		}
		text, _ := s.MarshalText()
		var parsed AlertState
		if err := parsed.UnmarshalText(text); err != nil || parsed != s {
			t.Errorf("text %q parses to %v (%v), want %v", text, parsed, err, s)
		}
	}
	for _, v := range []float64{-1, 0.5, 2.5, 4, 1e9, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if s, ok := StateOfSeverity(v); ok {
			t.Errorf("gauge %v decodes to %v, want rejected", v, s)
		}
	}
}
