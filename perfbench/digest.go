package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// defaultSeed is the seed the committed digests were taken at.
const defaultSeed = 1

// goldenJSON maps each workload to the sha256 of one pass's output bytes
// at defaultSeed. Regenerate an entry only for a change that sets out to
// change simulated output: run the workload at --seed 1 and copy the
// digest it prints.
//
//go:embed golden.json
var goldenJSON []byte

func loadGolden() (map[string]string, error) {
	var g map[string]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("parsing golden.json: %w", err)
	}
	return g, nil
}

// digestCheck decides whether a pass's output digest is correct. At the
// default seed it must equal the committed digest; at any other seed
// every pass of the run must reproduce the first pass's bytes.
type digestCheck struct {
	golden string // committed digest; "" when the seed has none
	first  string // first digest seen in this run
}

func newDigestCheck(golden map[string]string, workload string, seed int64) *digestCheck {
	c := &digestCheck{}
	if seed == defaultSeed {
		c.golden = golden[workload]
		if c.golden == "" {
			c.golden = "missing"
		}
	}
	return c
}

func (c *digestCheck) check(digest string) error {
	if c.golden != "" {
		if digest != c.golden {
			return fmt.Errorf("output digest %s, committed digest %s", digest, c.golden)
		}
		return nil
	}
	if c.first == "" {
		c.first = digest
		return nil
	}
	if digest != c.first {
		return fmt.Errorf("output digest %s differs from the run's first pass %s", digest, c.first)
	}
	return nil
}
