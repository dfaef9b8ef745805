package server

import (
	"testing"
)

// Steady-state allocation pins for the full server dispatch path (wire
// parse → dispatch → reply encode), the server half of the resp-layer
// pins in internal/resp/alloc_test.go. The acceptance bars from the
// perf issue: GET/EXISTS/DEL/MGET at 0 allocs/op, SET's codec share at
// ≤ 1 (the value's copy out of the connection arena); the engine's own
// store-path allocations are pinned separately by the library
// artifacts.
func TestServerPathAllocPins(t *testing.T) {
	for _, mode := range []string{"conn", "affine"} {
		t.Run(mode, func(t *testing.T) {
			p, err := MeasureServerPathAllocs(mode, 64)
			if err != nil {
				t.Fatal(err)
			}
			pins := []struct {
				op   string
				got  float64
				want float64
			}{
				{"GET", p.Get, 0},
				{"EXISTS", p.Exists, 0},
				{"DEL", p.Del, 0},
				{"MGET", p.MGet, 0},
				{"SET codec", p.SetCodec, 1},
			}
			for _, pin := range pins {
				if pin.got > pin.want {
					t.Errorf("%s: %.1f allocs/op on the server path, pinned at %.0f", pin.op, pin.got, pin.want)
				}
			}
			// The full SET path must be exactly codec + engine: if this
			// grows, something beyond the store and the one Detach crept in.
			// The engine's share is an overwrite: fresh leaf, descriptor
			// and the one-word Unflag of the unflag CAS.
			if p.Set < p.SetCodec {
				t.Errorf("full SET %.1f below its codec share %.1f — probe broken", p.Set, p.SetCodec)
			}
			if p.Set > 1+3 {
				t.Errorf("full SET: %.1f allocs/op, pinned at 4 (1 codec + 3 engine overwrite)", p.Set)
			}
			t.Logf("%s: get=%.1f exists=%.1f del=%.1f mget=%.1f set=%.1f set_codec=%.1f",
				mode, p.Get, p.Exists, p.Del, p.MGet, p.Set, p.SetCodec)
		})
	}
}
