package cluster

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzParseFaults fuzzes the -degrade grammar from the seed corpus in
// testdata/fuzz (the parser tests' specs). Whatever a user types,
// ParseFaults must not panic; a spec it accepts must pass Config validation
// on a cluster large enough to hold its faults; and every non-healthy fault
// must print back to a spec that parses to the same fault.
func FuzzParseFaults(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		faults, err := ParseFaults(spec)
		if err != nil {
			return
		}

		// The smallest cluster holding every index: racks sized evenly.
		nodes, racks := 1, 0
		for _, nf := range faults {
			if nf.Node > 1<<20 {
				return // past any cluster a config could build
			}
			if nf.Rack {
				racks = max(racks, nf.Node+1)
			} else {
				nodes = max(nodes, nf.Node+1)
			}
		}
		cfg := baseConfig(nodes, Random{}, 0.5)
		if racks > 0 {
			cfg.Nodes = (max(nodes, racks) + racks - 1) / racks * racks
			cfg.Racks = racks
			cfg.GlobalPolicy = Random{}
		}
		cfg.Faults = faults
		if err := cfg.validate(); err != nil {
			t.Fatalf("ParseFaults(%q) accepted %v, which validation rejects: %v", spec, faults, err)
		}

		for _, nf := range faults {
			s := nf.String()
			if strings.HasSuffix(s, ":healthy") {
				continue
			}
			again, err := ParseFaults(s)
			if err != nil || len(again) != 1 || !sameFault(again[0], nf) {
				t.Fatalf("%q: fault %+v prints as %q, which parses to %+v, %v", spec, nf, s, again, err)
			}
		}
	})
}

// sameFault compares two faults by effect: slowdowns of 0 and 1 both mean
// full speed.
func sameFault(a, b NodeFault) bool {
	norm := func(f NodeFault) NodeFault {
		if f.Slowdown == 1 {
			f.Slowdown = 0
		}
		return f
	}
	return reflect.DeepEqual(norm(a), norm(b))
}
