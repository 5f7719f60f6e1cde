package machine

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"
)

// rotatePolicy packs the apps onto consecutive cores, SMT level per core,
// and moves the whole block one core further every quantum. At partial
// occupancy this rotates idle cores into use; with churn set it also
// rotates the apps through the block, so a core's occupant set changes
// while some of its occupants stay.
type rotatePolicy struct{ churn bool }

func (rotatePolicy) Name() string { return "rotate-test" }
func (p rotatePolicy) Place(st *QuantumState) Placement {
	level := st.ThreadsPerCore()
	out := make(Placement, st.NumApps)
	for i := range out {
		k := i
		if p.churn {
			k = (i + st.Quantum) % st.NumApps
		}
		out[i] = (k/level + st.Quantum) % st.NumCores
	}
	return out
}

// closedPin is the recorded outcome of one closed-system run.
type closedPin struct {
	quanta     int
	placements uint64   // FNV-64a over every executed placement
	retired    []uint64 // per app
	completed  []uint64 // per app CompletedAtCycle
}

func pinOf(res *Result) closedPin {
	h := fnv.New64a()
	for _, p := range res.Placements {
		for _, c := range p {
			fmt.Fprintf(h, "%d,", c)
		}
		h.Write([]byte{';'})
	}
	pin := closedPin{quanta: res.Quanta, placements: h.Sum64()}
	for _, a := range res.Apps {
		pin.retired = append(pin.retired, a.Retired)
		pin.completed = append(pin.completed, a.CompletedAtCycle)
	}
	return pin
}

// TestRunPinsClosedSystem pins Machine.Run bit for bit across SMT levels,
// full and partial occupancy, policies that rotate idle cores into use and
// churn a core's occupant set, and a quantum that is not a multiple of the
// SMT level. The closed system's two modelling rules — every core is
// stepped every quantum, idle or not, and a core whose occupant set changes
// is rebound whole — both move these numbers, which no golden digest
// exercises at partial occupancy.
func TestRunPinsClosedSystem(t *testing.T) {
	cases := []struct {
		name    string
		cores   int
		level   int
		apps    int
		quantum uint64
		policy  Policy
		seed    uint64
		quanta  int
		want    closedPin
	}{
		{"smt1-full-static", 4, 1, 4, 5_000, staticPolicy{}, 1, 30, closedPin{12, 0x5038d4321e8abe11,
			[]uint64{20439, 56180, 33899, 57036}, []uint64{45000, 30000, 60000, 0}}},
		{"smt1-partial-rotate", 4, 1, 3, 5_000, rotatePolicy{}, 2, 30, closedPin{12, 0x874df5f55b812471,
			[]uint64{16273, 54290, 33279}, []uint64{60000, 30000, 0}}},
		{"smt2-full-churn", 4, 2, 8, 5_000, rotatePolicy{churn: true}, 3, 30, closedPin{30, 0xee99c2275c5b76ef,
			[]uint64{40089, 104163, 56200, 112290, 81655, 111163, 59192, 93142},
			[]uint64{60000, 40000, 90000, 60000, 95000, 85000, 0, 0}}},
		{"smt2-partial-rotate", 4, 2, 5, 5_000, rotatePolicy{}, 4, 30, closedPin{17, 0x2e6c8fd17a57d578,
			[]uint64{21298, 62592, 33361, 60887, 65396}, []uint64{65000, 35000, 85000, 60000, 0}}},
		{"smt3-partial-rotate", 3, 3, 4, 5_000, rotatePolicy{}, 9, 40, closedPin{40, 0xe37e0cc82fa78eec,
			[]uint64{25004, 71729, 33831, 195490}, []uint64{120000, 75000, 200000, 0}}},
		{"smt3-partial-churn", 3, 3, 5, 5_000, rotatePolicy{churn: true}, 5, 40, closedPin{20, 0x8c06706d7ea519e0,
			[]uint64{16608, 50843, 33296, 55434, 30326}, []uint64{90000, 45000, 100000, 75000, 0}}},
		{"smt3-full-static", 3, 3, 9, 5_000, staticPolicy{}, 6, 30, closedPin{30, 0xf3c1cc01899b597d,
			[]uint64{19794, 68701, 26945, 60193, 53064, 50207, 30864, 77251, 18107},
			[]uint64{110000, 50000, 0, 100000, 145000, 0, 0, 0, 0}}},
		{"smt4-partial-churn", 2, 4, 5, 7_001, rotatePolicy{churn: true}, 7, 30, closedPin{23, 0xd9735d6cddd2ed8,
			[]uint64{19358, 79735, 34214, 88658, 47003}, []uint64{133019, 56008, 161023, 84012, 0}}},
		{"smt4-partial-rotate", 3, 4, 5, 7_001, rotatePolicy{}, 10, 30, closedPin{30, 0xb511fa022f7c4c9d,
			[]uint64{21945, 83375, 32073, 88519, 148263}, []uint64{147021, 70010, 0, 98014, 0}}},
		{"smt4-full-rotate", 2, 4, 8, 6_000, rotatePolicy{}, 8, 30, closedPin{30, 0x39dcbfb5262431df,
			[]uint64{17773, 74024, 26146, 77133, 38526, 70473, 29285, 70297},
			[]uint64{150000, 60000, 0, 102000, 0, 156000, 0, 0}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.Cores = tc.cores
			cfg.Core.SMTLevel = tc.level
			cfg.QuantumCycles = tc.quantum
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			models := nModels(tc.apps)
			targets := make([]uint64, tc.apps)
			for i := range targets {
				// A mix of early finishers (several relaunches), late
				// finishers and one app that never completes.
				targets[i] = uint64(15_000 + 9_000*i)
			}
			targets[tc.apps-1] = 0
			res, err := m.Run(models, targets, tc.policy, RunnerOptions{Seed: tc.seed, MaxQuanta: tc.quanta})
			if err != nil {
				t.Fatal(err)
			}
			if got := pinOf(res); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("closed run moved\n  got:  %+v\n  want: %+v", got, tc.want)
			}
		})
	}
}
