package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// fingerprintJSON is the committed fingerprint (regenerate with
// -write-fingerprint after a change that is meant to alter results).
//
//go:embed fingerprint.json
var fingerprintJSON []byte

// Fingerprint pins every simulated statistic the benchmark checks, as
// formatted strings keyed by "<mode>/<benchmark>/<what>".
type Fingerprint struct {
	// DefaultSeed is the seed later claims are measured on; HeldOutSeed
	// is the seed a claim is re-checked on after tuning.
	DefaultSeed uint64 `json:"default_seed"`
	HeldOutSeed uint64 `json:"held_out_seed"`
	// Static holds statistics that depend on the program only: the gate
	// activity analysis is input-independent, so the cut, the netlist,
	// the timing and the proofs are the same for every workload seed.
	Static map[string]string `json:"static"`
	// Seeded holds statistics that depend on the workload inputs (cycle
	// counts, power, fault-campaign outcomes), by workload seed. Only the
	// pinned seeds are present; on other seeds those statistics are
	// checked against the golden model and for repeatability instead.
	Seeded map[string]map[string]string `json:"seeded"`
}

func loadFingerprint() (*Fingerprint, error) {
	var fp Fingerprint
	if err := json.Unmarshal(fingerprintJSON, &fp); err != nil {
		return nil, fmt.Errorf("fingerprint.json: %w", err)
	}
	if fp.Static == nil {
		fp.Static = map[string]string{}
	}
	if fp.Seeded == nil {
		fp.Seeded = map[string]map[string]string{}
	}
	return &fp, nil
}

// prints maps a statistic's key to its formatted value.
type prints map[string]string

// diffPrints lists, in key order, each statistic of got whose value
// differs from want's or that want does not pin.
func diffPrints(want, got prints) []string {
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []string
	for _, k := range keys {
		w, ok := want[k]
		switch {
		case !ok:
			out = append(out, fmt.Sprintf("%s: %q is not pinned", k, got[k]))
		case w != got[k]:
			out = append(out, fmt.Sprintf("%s: got %q, want %q", k, got[k], w))
		}
	}
	return out
}

// checker compares every operation's statistics with the committed
// fingerprint and with what earlier operations of the same run produced
// for the same key. In record mode it collects them into a new
// fingerprint instead.
type checker struct {
	fp     *Fingerprint
	record bool
	seen   map[string]prints // by workload seed, "" for static
}

func newChecker(fp *Fingerprint, record bool) *checker {
	return &checker{fp: fp, record: record, seen: map[string]prints{}}
}

// check validates one operation's static and seeded statistics (seeded
// ones were produced with workload seed wseed). A non-nil error lists
// every mismatch.
func (c *checker) check(wseed uint64, static, seeded prints) error {
	sk := strconv.FormatUint(wseed, 10)
	var bad []string
	bad = append(bad, c.repeat("", static)...)
	bad = append(bad, c.repeat(sk, seeded)...)
	if !c.record {
		bad = append(bad, diffPrints(c.fp.Static, static)...)
		if want, pinned := c.fp.Seeded[sk]; pinned {
			bad = append(bad, diffPrints(want, seeded)...)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("fingerprint mismatch:\n  %s", strings.Join(bad, "\n  "))
	}
	return nil
}

// repeat checks got against the values earlier operations produced under
// the same keys and remembers the new ones.
func (c *checker) repeat(bucket string, got prints) []string {
	m := c.seen[bucket]
	if m == nil {
		m = prints{}
		c.seen[bucket] = m
	}
	var bad []string
	for k, v := range got {
		if old, ok := m[k]; ok && old != v {
			bad = append(bad, fmt.Sprintf("%s: %q does not repeat (earlier %q)", k, v, old))
		}
		m[k] = v
	}
	return bad
}

// writeRecorded merges everything this run produced into the fingerprint
// and writes it to path.
func (c *checker) writeRecorded(path string) error {
	for k, v := range c.seen[""] {
		c.fp.Static[k] = v
	}
	for sk, m := range c.seen {
		if sk == "" {
			continue
		}
		dst := c.fp.Seeded[sk]
		if dst == nil {
			dst = map[string]string{}
			c.fp.Seeded[sk] = dst
		}
		for k, v := range m {
			dst[k] = v
		}
	}
	data, err := json.MarshalIndent(c.fp, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
