package rpol

import (
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// leafExpr is one leaf index as PROTOCOL.md writes it: a number, n, or n
// minus a number, for a trace of leaves 0 … n.
type leafExpr struct {
	ofN    bool
	offset int
}

func (e leafExpr) at(n int) int {
	if e.ofN {
		return n + e.offset
	}
	return e.offset
}

var leafExprRE = regexp.MustCompile(`^(n|\d+)(?:[−-](\d+))?$`)

func parseLeafExpr(t *testing.T, s string) leafExpr {
	t.Helper()
	m := leafExprRE.FindStringSubmatch(s)
	if m == nil {
		t.Fatalf("PROTOCOL.md: leaf %q is not a number, n or n−k", s)
	}
	var e leafExpr
	if m[1] == "n" {
		e.ofN = true
	} else {
		e.offset, _ = strconv.Atoi(m[1])
	}
	if m[2] != "" {
		k, _ := strconv.Atoi(m[2])
		e.offset -= k
	}
	return e
}

// requestRules is PROTOCOL §4's "What a verifier may request" table, read
// into checkable form.
type requestRules struct {
	openLo, openHi leafExpr   // open-request only for leaves lo … hi
	openNever      []leafExpr // open-request never for these leaves
	openMax        int        // times one leaf may be opened
	proofAlways    []leafExpr // proof-request for these leaves every time
	proofMax       int        // times one leaf may be proved
}

var (
	cellRE     = regexp.MustCompile(`\s*\|\s*`)
	rangeRE    = regexp.MustCompile(`leaves (\S+) … (\S+) only`)
	neverRE    = regexp.MustCompile("`open-request` for leaf (\\S+) or leaf (\\S+)$")
	proofLeaf  = regexp.MustCompile(`^leaves (\S+) and (\S+) once each for the bindings`)
	atMostRE   = regexp.MustCompile(`at most (once|twice|\d+ times)`)
	atMostWord = map[string]int{"once": 1, "twice": 2}
)

func atMost(t *testing.T, cell string) int {
	t.Helper()
	m := atMostRE.FindStringSubmatch(cell)
	if m == nil {
		t.Fatalf("PROTOCOL.md: %q gives no bound", cell)
	}
	if n, ok := atMostWord[m[1]]; ok {
		return n
	}
	n, _ := strconv.Atoi(strings.TrimSuffix(m[1], " times"))
	return n
}

// docRequestRules parses the table out of PROTOCOL.md.
func docRequestRules(t *testing.T) requestRules {
	t.Helper()
	data, err := os.ReadFile("../../PROTOCOL.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	start := strings.Index(doc, "**What a verifier may request.**")
	if start < 0 {
		t.Fatal("PROTOCOL.md: no \"What a verifier may request\" paragraph")
	}
	var r requestRules
	seen := 0
	for _, line := range strings.Split(doc[start:], "\n") {
		if !strings.HasPrefix(line, "| `") {
			if seen > 0 && !strings.HasPrefix(line, "|") {
				break // the table ended
			}
			continue
		}
		cells := cellRE.Split(strings.Trim(line, "| "), -1)
		if len(cells) != 3 {
			t.Fatalf("PROTOCOL.md: request row %q has %d cells, want 3", line, len(cells))
		}
		msg, leaves, often := cells[0], cells[1], cells[2]
		switch {
		case strings.HasPrefix(msg, "`open-request` / `open-response`"):
			m := rangeRE.FindStringSubmatch(leaves)
			if m == nil {
				t.Fatalf("PROTOCOL.md: open row gives no leaf range: %q", leaves)
			}
			r.openLo, r.openHi = parseLeafExpr(t, m[1]), parseLeafExpr(t, m[2])
			r.openMax = atMost(t, often)
		case neverRE.MatchString(msg):
			m := neverRE.FindStringSubmatch(msg)
			if !strings.HasPrefix(leaves, "never") {
				t.Fatalf("PROTOCOL.md: %q is not a never row: %q", msg, leaves)
			}
			r.openNever = []leafExpr{parseLeafExpr(t, m[1]), parseLeafExpr(t, m[2])}
		case strings.HasPrefix(msg, "`proof-request` / `proof-response`"):
			m := proofLeaf.FindStringSubmatch(leaves)
			if m == nil {
				t.Fatalf("PROTOCOL.md: proof row names no bound leaves: %q", leaves)
			}
			r.proofAlways = []leafExpr{parseLeafExpr(t, m[1]), parseLeafExpr(t, m[2])}
			r.proofMax = atMost(t, often)
		default:
			t.Fatalf("PROTOCOL.md: unknown request row %q", msg)
		}
		seen++
	}
	if seen != 3 || r.openMax == 0 || r.openNever == nil || r.proofMax == 0 {
		t.Fatalf("PROTOCOL.md: request table incomplete (%d rows): %+v", seen, r)
	}
	return r
}

// TestProtocolDocRequestTable holds PROTOCOL §4's "What a verifier may
// request" table to what verifiers do: seeded v1 and v2 verifications of
// honest submissions at n = 3, 8 and 33 intervals, plus a v2 trace drifted
// inside β but outside its LSH buckets so that double-checks open outputs,
// all behind a counting opener. Every open falls in the table's range and
// never on its excluded leaves; the range's two ends are both opened
// somewhere, so a widened or narrowed range fails; the bound leaves are
// proved in every verification; and the most any leaf is asked for is the
// table's bound, no more and no less.
func TestProtocolDocRequestTable(t *testing.T) {
	rules := docRequestRules(t)
	const seeds = 64
	for _, n := range []int{3, 8, 33} {
		for _, scheme := range []Scheme{SchemeV1, SchemeV2} {
			t.Run(fmt.Sprintf("%s/n=%d", scheme, n), func(t *testing.T) {
				s := newStoreSetup(t, scheme, true, n)
				type submission struct {
					opener ProofOpener
					result *EpochResult
				}
				subs := []submission{{s.opener, s.result}}
				if scheme == SchemeV2 {
					drifted, result := driftedTrace(t, s, 2)
					subs = append(subs, submission{drifted, result})
				}
				opened := map[int]bool{}
				maxOpens, maxProofs, doubleChecks := 0, 0, 0
				for _, sub := range subs {
					for seed := int64(0); seed < seeds; seed++ {
						o := &countingOpener{inner: sub.opener}
						out, err := s.verifier(t, scheme, 0, seed).VerifySubmission(o, s.ds, sub.result, s.p)
						if err != nil {
							t.Fatal(err)
						}
						if !out.Accepted {
							t.Fatalf("seed %d: rejected: %s", seed, out.FailReason)
						}
						doubleChecks += out.DoubleChecks
						for idx, c := range o.opens {
							opened[idx] = true
							maxOpens = max(maxOpens, c)
							if idx < rules.openLo.at(n) || idx > rules.openHi.at(n) {
								t.Errorf("seed %d sampled %v: opened leaf %d, outside the table's %d … %d",
									seed, out.SampledCheckpoints, idx, rules.openLo.at(n), rules.openHi.at(n))
							}
							for _, never := range rules.openNever {
								if idx == never.at(n) {
									t.Errorf("seed %d sampled %v: opened leaf %d, which the table says is never opened",
										seed, out.SampledCheckpoints, idx)
								}
							}
						}
						for idx, c := range o.proofs {
							maxProofs = max(maxProofs, c)
							if idx < 0 || idx > n {
								t.Errorf("seed %d: proof of leaf %d requested, outside 0 … %d", seed, idx, n)
							}
						}
						for _, always := range rules.proofAlways {
							if o.proofs[always.at(n)] == 0 {
								t.Errorf("seed %d sampled %v: leaf %d not proved, the table binds it every time",
									seed, out.SampledCheckpoints, always.at(n))
							}
						}
					}
				}
				if scheme == SchemeV2 && doubleChecks == 0 {
					t.Error("no seed sampled the drifted interval: no double-check was exercised")
				}
				for _, end := range []leafExpr{rules.openLo, rules.openHi} {
					if !opened[end.at(n)] {
						t.Errorf("leaf %d, an end of the table's open range, was never opened in %d verifications: the range is wider than what verifiers do",
							end.at(n), seeds*len(subs))
					}
				}
				if maxOpens != rules.openMax || maxProofs != rules.proofMax {
					t.Errorf("a leaf was opened at most %d and proved at most %d times, the table says %d and %d",
						maxOpens, maxProofs, rules.openMax, rules.proofMax)
				}
			})
		}
	}
}
