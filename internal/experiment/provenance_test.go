package experiment

import (
	"bytes"
	"testing"
	"time"
)

// provBytes renders the zoo matrix's provenance log as canonical JSONL.
func provBytes(t *testing.T, cfg ZooConfig) []byte {
	t.Helper()
	res, err := RunZoo(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Observation().Provenance.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestZooProvenanceDeterministicAcrossWorkers extends the byte-determinism
// contract to the provenance plane: the concatenated decision log of the
// full zoo matrix is byte-identical at workers 1, 2 and 8, shuffled or
// not, for more than one seed. Span IDs derive from cell seeds, never from
// dispatch order, so this holds by construction — this test keeps it held.
func TestZooProvenanceDeterministicAcrossWorkers(t *testing.T) {
	for _, seed := range []int64{1, 99} {
		cfg := DefaultZooConfig()
		cfg.Duration = 20 * time.Minute
		cfg.Seed = seed
		cfg.Workers = 1
		want := provBytes(t, cfg)
		if len(want) == 0 {
			t.Fatalf("seed %d: empty provenance log", seed)
		}
		for _, w := range []int{2, 8} {
			for _, shuffle := range []int64{0, 12345} {
				c := cfg
				c.Workers = w
				c.ShuffleSeed = shuffle
				if got := provBytes(t, c); !bytes.Equal(got, want) {
					t.Fatalf("seed %d workers=%d shuffle=%d: provenance diverges from workers=1",
						seed, w, shuffle)
				}
			}
		}
	}
}

// TestZooProvenanceZeroObserverEffect pins that recording provenance never
// changes what the experiment does: the matrix renders byte-identically
// with the recorder armed and disarmed.
func TestZooProvenanceZeroObserverEffect(t *testing.T) {
	cfg := DefaultZooConfig()
	cfg.Duration = 20 * time.Minute

	on, err := RunZoo(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Provenance = false
	off, err := RunZoo(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if on.Format() != off.Format() {
		t.Fatalf("provenance recording changed the experiment:\n--- on ---\n%s\n--- off ---\n%s",
			on.Format(), off.Format())
	}
	if on.Observation().Provenance.Len() == 0 {
		t.Fatal("armed run recorded nothing")
	}
	if off.Observation().Provenance.Len() != 0 {
		t.Fatal("disarmed run still recorded provenance")
	}
}

// TestZooProvenanceExplainsDecisions is the acceptance bar of the
// provenance layer: every risk decision the zoo reports — denied
// admissions, grants, session stops — has a "why" record resolvable by
// span, and admission verdicts chain back to the workload request that
// caused them.
func TestZooProvenanceExplainsDecisions(t *testing.T) {
	cfg := DefaultZooConfig()
	cfg.Duration = 30 * time.Minute
	res, err := RunZoo(cfg)
	if err != nil {
		t.Fatal(err)
	}

	for ci := range res.Cells {
		c := &res.Cells[ci]
		log := c.Provenance
		if log.Len() == 0 {
			t.Errorf("%s×%s: no provenance records", c.Policy, c.Scenario)
			continue
		}
		var grants, rejects int
		for i := range log.Records {
			r := &log.Records[i]
			// Every record resolves by its own span.
			if log.Find(r.Span) == nil {
				t.Errorf("%s×%s: span %s unresolvable in its own log", c.Policy, c.Scenario, r.Span)
			}
			if r.Site != "soa.admit" {
				continue
			}
			switch r.Verdict {
			case "grant":
				grants++
			default:
				rejects++
			}
			// The why-chain of an admission must reach the workload request
			// that triggered it.
			chain := log.Chain(r.Span)
			rooted := false
			for j := range chain {
				if chain[j].Site == "wi.request" {
					rooted = true
					break
				}
			}
			if !rooted {
				t.Errorf("%s×%s: admission %s does not chain back to a wi.request",
					c.Policy, c.Scenario, r.Span)
			}
		}
		if c.Granted > 0 && grants == 0 {
			t.Errorf("%s×%s: %d grants reported but no grant records", c.Policy, c.Scenario, c.Granted)
		}
		if c.Requests > c.Granted && rejects == 0 {
			t.Errorf("%s×%s: %d denials reported but no reject records",
				c.Policy, c.Scenario, c.Requests-c.Granted)
		}
	}
}
