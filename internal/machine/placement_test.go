package machine

import (
	"fmt"
	"reflect"
	"testing"
)

// Partial-occupancy invariants of Placement: fewer apps than hardware
// threads, solo apps and empty cores are all legal states of a dynamic run
// and every helper must handle them.

func TestPlacementValidatePartialOccupancy(t *testing.T) {
	cases := []struct {
		name  string
		p     Placement
		cores int
		ok    bool
	}{
		{"empty placement", Placement{}, 4, true},
		{"solo app", Placement{2}, 4, true},
		{"three apps on four cores", Placement{0, 0, 3}, 4, true},
		{"five apps odd occupancy", Placement{0, 0, 1, 2, 3}, 4, true},
		{"full machine", Placement{0, 0, 1, 1, 2, 2, 3, 3}, 4, true},
		{"negative core", Placement{Unplaced}, 4, false},
		{"core out of range", Placement{4}, 4, false},
		{"three apps one core", Placement{1, 1, 1}, 4, false},
	}
	for _, c := range cases {
		err := c.p.Validate(c.cores, 2)
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate(%d, 2) = %v, want ok=%v", c.name, c.cores, err, c.ok)
		}
	}
	// At SMT4 the same triple-on-one-core placement is legal, and a quint
	// is not.
	if err := (Placement{1, 1, 1}).Validate(4, 4); err != nil {
		t.Errorf("SMT4 triple rejected: %v", err)
	}
	if err := (Placement{1, 1, 1, 1, 1}).Validate(4, 4); err == nil {
		t.Errorf("five apps on one SMT4 core accepted")
	}
}

func TestPairsOfPartialOccupancy(t *testing.T) {
	// Three apps on four cores: a pair on core 1, a solo on core 3,
	// cores 0 and 2 empty.
	p := Placement{1, 3, 1}
	pairs := p.PairsOf(4, nil)
	if len(pairs) != 4 {
		t.Fatalf("PairsOf returned %d cores", len(pairs))
	}
	if len(pairs[0]) != 0 || len(pairs[2]) != 0 {
		t.Fatalf("empty cores not empty: %v", pairs)
	}
	if !reflect.DeepEqual(pairs[1], []int{0, 2}) {
		t.Fatalf("core 1 = %v, want [0 2]", pairs[1])
	}
	if !reflect.DeepEqual(pairs[3], []int{1}) {
		t.Fatalf("core 3 = %v, want [1]", pairs[3])
	}
	// Unplaced entries (a dynamic Prev view) are skipped, not crashed on;
	// the reused rows of the previous result are cleared.
	withUnplaced := Placement{Unplaced, 2, Unplaced}
	pairs = withUnplaced.PairsOf(4, pairs)
	if got := fmt.Sprint(pairs); got != "[[] [] [1] []]" {
		t.Fatalf("unplaced-view pairs = %v", pairs)
	}
	// A larger machine grows the reused result.
	if pairs = p.PairsOf(6, pairs); len(pairs) != 6 || !reflect.DeepEqual(pairs[1], []int{0, 2}) {
		t.Fatalf("grown pairs = %v", pairs)
	}
}

func TestCoMatesPartialOccupancy(t *testing.T) {
	// Solo apps have no co-mate; paired apps point at each other; the
	// empty placement yields an empty view.
	if got := (Placement{}).CoMates(nil); len(got) != 0 {
		t.Fatalf("CoMates of empty placement = %v", got)
	}
	cases := []struct {
		p    Placement
		want []int
	}{
		{Placement{3}, []int{-1}},                                  // solo
		{Placement{1, 3, 1}, []int{2, -1, 0}},                      // pair + solo
		{Placement{0, 0, 1, 2, 3}, []int{1, 0, -1, -1, -1}},        // odd occupancy
		{Placement{Unplaced, 2, Unplaced, 2}, []int{-1, 3, -1, 1}}, // dynamic Prev view
	}
	for _, c := range cases {
		got := c.p.CoMates(nil)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("CoMates(%v) = %v, want %v", c.p, got, c.want)
		}
		// CoMate (the O(n) single query) must agree with the batch view.
		for i := range c.p {
			if cm := c.p.CoMate(i); cm != c.want[i] {
				t.Errorf("CoMate(%v, %d) = %d, want %d", c.p, i, cm, c.want[i])
			}
		}
	}
}
