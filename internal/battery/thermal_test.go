package battery

import (
	"math"
	"testing"
)

func TestThermalFactor(t *testing.T) {
	// Unity at the reference temperature.
	if f := ThermalFactor(ArrheniusRefC); math.Abs(f-1) > 1e-12 {
		t.Errorf("factor at reference = %v", f)
	}
	// Monotone increasing in temperature.
	if ThermalFactor(35) <= ThermalFactor(25) || ThermalFactor(45) <= ThermalFactor(35) {
		t.Error("thermal factor not increasing")
	}
	// Roughly doubles per ~13 °C near room temperature.
	ratio := ThermalFactor(38) / ThermalFactor(25)
	if ratio < 1.6 || ratio > 2.6 {
		t.Errorf("13 °C acceleration ratio = %v, want ≈ 2", ratio)
	}
	// Cold slows degradation in this model regime.
	if ThermalFactor(10) >= 1 {
		t.Errorf("cold factor = %v, want < 1", ThermalFactor(10))
	}
}
