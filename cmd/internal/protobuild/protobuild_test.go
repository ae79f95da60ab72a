package protobuild

import (
	"strings"
	"testing"
)

// TestBuildRejectsBadSizes: size parameters that once panicked a
// builder (negative sizes, a distinguished process past the last one)
// or named more processes than the explorer accepts are errors.
func TestBuildRejectsBadSizes(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		want string
	}{
		{Config{Protocol: "alg2", N: -1}, "n = -1"},
		{Config{Protocol: "consensus-pacm", M: -3}, "m = -3"},
		{Config{Protocol: "partition", K: -1}, "k = -1"},
		{Config{Protocol: "alg2", P: -1}, "p = -1"},
		{Config{Protocol: "kset-sa", Procs: -2}, "procs = -2"},
		{Config{Protocol: "alg2", N: 65}, "n = 65"},
		{Config{Protocol: "alg2", P: 7}, "p = 7"},
		{Config{Protocol: "alg2-upset", P: 7}, "p = 7"},
		{Config{Protocol: "dac-attempt", P: 7}, "distinguished process 7"},
		{Config{Protocol: "partition", K: 64, M: 2}, "128 processes"},
		{Config{Asm: "../../../examples/protocols/pac-retry.s", Objects: "pac:2", Task: "dac", Procs: 2, P: 5}, "distinguished process 5"},
	} {
		_, _, _, err := tc.cfg.Build()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: Build error %v, want one containing %q", tc.cfg, err, tc.want)
		}
	}
}
