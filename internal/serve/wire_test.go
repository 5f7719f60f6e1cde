package serve

import (
	"os"
	"testing"

	"synpa/internal/core"
	"synpa/internal/predcache"
)

// BenchmarkPlaceOne times one in-process placement decision, with no memo
// and on a warm shared one: what a synpad request costs beyond decoding,
// encoding and transport. "recorded" is a query from a dynamic SYNPA run
// (4 live apps on 4 x SMT2); its apps ran solo, so Step 1 inverts nothing
// and the decision is mostly the SMT2 padded-graph DP. "paired" is the
// same samples with the apps paired on two cores, so Step 1 inverts two
// pairs: directly without a memo, as two hits on the warm one.
func BenchmarkPlaceOne(b *testing.B) {
	body, err := os.ReadFile("testdata/place_request.json")
	if err != nil {
		b.Fatal(err)
	}
	var recorded PlaceRequest
	if err := decodeRequest(body, &recorded); err != nil {
		b.Fatal(err)
	}
	paired := recorded
	paired.Prev = []int{0, 0, 1, 1}
	for _, tc := range []struct {
		name string
		q    *PlaceRequest
	}{{"recorded", &recorded}, {"paired", &paired}} {
		for _, shared := range []bool{false, true} {
			name := tc.name + map[bool]string{false: "/none", true: "/shared-warm"}[shared]
			b.Run(name, func(b *testing.B) {
				p := core.MustPolicy(core.PaperCoefficients(), core.PolicyOptions{})
				if shared {
					p.SetSharedCache(predcache.NewShared(predcache.Options{}, 0))
				}
				a := p.NewArena()
				if _, err := PlaceOne(p, a, tc.q); err != nil { // warms the memo
					b.Fatal(err)
				}
				b.ReportAllocs()
				for b.Loop() {
					if _, err := PlaceOne(p, a, tc.q); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
