package serve

import (
	"errors"
	"math"
	"testing"

	"hbn/internal/tree"
)

// Every out-of-range Options value is rejected through the typed
// sentinel — errors.Is(err, ErrBadOptions) is the contract callers branch
// on — and is never coerced into something servable. The one constraint
// validate alone cannot see is cross-field: a drift threshold with no
// check cadence and no epoch cadence to derive one from would arm a
// trigger that can never fire, so NewCluster refuses it too.
func TestNewClusterRejectsBadOptions(t *testing.T) {
	tr := tree.SCICluster(2, 3, 16, 8)
	cases := []struct {
		name string
		opts Options
		bad  bool
	}{
		{"zero threshold", Options{Threshold: 0}, true},
		{"negative threshold", Options{Threshold: -2}, true},
		{"negative write budget", Options{Threshold: 4, WriteBudget: -1}, true},
		{"negative epoch cadence", Options{Threshold: 4, EpochRequests: -100}, true},
		{"NaN drift threshold", Options{Threshold: 4, DriftThreshold: math.NaN()}, true},
		{"negative drift threshold", Options{Threshold: 4, DriftThreshold: -0.5}, true},
		{"negative drift cadence", Options{Threshold: 4, DriftThreshold: 0.2, DriftCheckRequests: -1}, true},
		{"drift trigger with no derivable cadence", Options{Threshold: 4, DriftThreshold: 0.2}, true},
		{"minimal valid", Options{Threshold: 1}, false},
		{"derived drift cadence", Options{Threshold: 4, EpochRequests: 800, DriftThreshold: 0.2}, false},
		{"explicit drift cadence", Options{Threshold: 4, DriftThreshold: 0.2, DriftCheckRequests: 50}, false},
		{"full opt-in", Options{Threshold: 8, EpochRequests: 400,
			BandwidthAware: true, WriteBudget: 8, DriftThreshold: 0.15, DriftCheckRequests: 25}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewCluster(tr, 8, tc.opts)
			if tc.bad {
				if !errors.Is(err, ErrBadOptions) {
					t.Fatalf("got %v, want ErrBadOptions", err)
				}
			} else if err != nil {
				t.Fatalf("valid options rejected: %v", err)
			}
		})
	}
}
