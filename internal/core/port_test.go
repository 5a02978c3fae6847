package core

import (
	"math"
	"testing"

	"repro/internal/sim"
)

func TestMeterResidual(t *testing.T) {
	m := NewMeter(100, 0) // 100 units/s target
	m.Add(30)
	m.Add(20)
	if m.used != 50 {
		t.Fatalf("Used = %v", m.used)
	}
	// Close after 1 s: used rate 50 → residual 50.
	res := m.Close(sim.Time(sim.Second))
	if math.Abs(res-50) > 1e-9 {
		t.Fatalf("residual = %v, want 50", res)
	}
	if m.used != 0 {
		t.Fatal("Close must reset the accumulator")
	}
	// Idle interval: full target is residual.
	res = m.Close(sim.Time(2 * sim.Second))
	if res != 100 {
		t.Fatalf("idle residual = %v, want 100", res)
	}
}

func TestMeterZeroLengthInterval(t *testing.T) {
	m := NewMeter(100, 0)
	m.Add(10)
	if res := m.Close(0); res != 100 {
		t.Fatalf("zero-length interval residual = %v, want target", res)
	}
}

func TestMeterOverload(t *testing.T) {
	m := NewMeter(100, 0)
	m.Add(300) // 300 units in 1 s on a target of 100 → residual −200
	res := m.Close(sim.Time(sim.Second))
	if res != -200 {
		t.Fatalf("residual = %v, want -200", res)
	}
}

func TestNewPortControlValidates(t *testing.T) {
	if _, err := NewPortControl(Config{}, 0); err == nil {
		t.Fatal("zero config accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustPortControl did not panic on bad config")
		}
	}()
	MustPortControl(Config{}, 0)
}

func TestPortControlTickLoop(t *testing.T) {
	// Drive the controller open-loop from an engine: a fake device sends
	// at exactly u·MACR; MACR must approach C_target/(1+u) (k=1).
	e := sim.NewEngine()
	cfg := Config{Capacity: 100e6, UtilizationFactor: 5}
	pc := MustPortControl(cfg, 0)
	var ticks int
	pc.OnTick = func(now sim.Time, residual, macr float64) { ticks++ }
	pc.Attach(e)
	interval := pc.Config().Interval
	e.Every(interval, func(*sim.Engine) {
		// Units sent during the past interval at rate u·MACR.
		pc.Transmitted(pc.AllowedRate() * interval.Seconds())
	})
	// Ensure the send accounting runs before the tick at equal times:
	// Every schedules in insertion order, pc.Attach was first, so swap —
	// transmit must come first. Re-wire: run the controller later instead.
	e2 := sim.NewEngine()
	pc2 := MustPortControl(cfg, 0)
	e2.Every(interval, func(*sim.Engine) {
		pc2.Transmitted(pc2.AllowedRate() * interval.Seconds())
	})
	pc2.Attach(e2)
	e2.RunUntil(sim.Time(3 * sim.Second))
	target := 100e6 * DefaultTargetUtilization
	want := target / (1 + 5.0)
	if math.Abs(pc2.MACR()-want) > want*0.05 {
		t.Fatalf("closed-loop MACR = %v, want ≈%v", pc2.MACR(), want)
	}
	if got := pc2.AllowedRate(); math.Abs(got-5*pc2.MACR()) > 1 {
		t.Fatalf("AllowedRate = %v, want 5·MACR", got)
	}

	// And the first engine still ticks (smoke for Attach + OnTick).
	e.RunUntil(sim.Time(10 * sim.Millisecond))
	if ticks == 0 {
		t.Fatal("OnTick never fired")
	}
}

func TestPortControlDelegates(t *testing.T) {
	cfg := Config{Capacity: 100, UtilizationFactor: 2, InitialMACR: 10}
	pc := MustPortControl(cfg, 0)
	if pc.MACR() != 10 {
		t.Fatalf("MACR = %v", pc.MACR())
	}
	if pc.AllowedRate() != 20 {
		t.Fatalf("AllowedRate = %v", pc.AllowedRate())
	}
	if pc.ClampER(100) != 20 || pc.ClampER(5) != 5 {
		t.Fatal("ClampER wrong")
	}
	if !pc.Exceeds(25) || pc.Exceeds(15) {
		t.Fatal("Exceeds wrong")
	}
}

func TestPortControlMeterIntegration(t *testing.T) {
	// Transmit exactly the target for one interval: residual 0 → MACR must
	// fall from its initial value.
	cfg := Config{Capacity: 100e6}
	pc := MustPortControl(cfg, 0)
	before := pc.MACR()
	target := 100e6 * DefaultTargetUtilization
	pc.Transmitted(target * DefaultInterval.Seconds())
	pc.Tick(sim.Time(DefaultInterval))
	if pc.MACR() >= before {
		t.Fatalf("MACR did not fall under full load: %v → %v", before, pc.MACR())
	}
}
