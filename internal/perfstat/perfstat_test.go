package perfstat

import (
	"testing"
	"time"
)

func TestDispatchPhaseName(t *testing.T) {
	EnablePhases(true)
	defer EnablePhases(false)
	t0 := PhaseClock()
	time.Sleep(time.Millisecond)
	PhaseAdd(PhaseDispatch, t0)
	sec := PhaseSeconds()
	if sec["dispatch"] <= 0 {
		t.Fatalf("dispatch phase missing from %v", sec)
	}
}
