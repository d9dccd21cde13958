package checker

import "testing"

// porToySys is two independent counters a and b, each stepping from 0
// to 2: state 10a+b, transition "a" listed before "b" wherever both are
// enabled, and a violation at (2,2), which every interleaving reaches.
// Its reducer selects "a" wherever both are enabled. That honestly
// makes progress — 2-a strictly falls on every selected transition and
// "b" never raises it — so certifies tells the truth. The full graph
// has 9 states and 12 transitions; the reduced one is the chain
// (0,0) → (1,0) → (2,0) → (2,1) → (2,2), with two choice points.
// fullAtOrigin leaves (0,0) unreduced, so the reduced graph gains the
// branch (0,1) → (1,1) → (2,1), which rejoins the chain.
type porToySys struct{ certifies, fullAtOrigin bool }

func (p *porToySys) Initial() State { return intState(0) }

func (p *porToySys) Expand(s State) []Transition {
	a, b := int(s.(intState))/10, int(s.(intState))%10
	var out []Transition
	if a < 2 {
		out = append(out, Transition{Label: "a", Next: intState(10*(a+1) + b)})
	}
	if b < 2 {
		out = append(out, Transition{Label: "b", Next: intState(10*a + b + 1)})
	}
	return out
}

func (p *porToySys) Inspect(s State) []Violation {
	if s.(intState) == 22 {
		return []Violation{{Property: "reach-22", Detail: "both counters done"}}
	}
	return nil
}

func (p *porToySys) Reduce(s State, trs []Transition) []int {
	if len(trs) < 2 || (p.fullAtOrigin && s.(intState) == 0) {
		return nil
	}
	return []int{0}
}

func (p *porToySys) CertifiesProgress() bool { return p.certifies }

// TestPORIgnoresUncertifiedReducer: POR adopts a reducer only when it
// certifies progress. An uncertified one is ignored, which is sound:
// the search is the full one, with no choice point.
func TestPORIgnoresUncertifiedReducer(t *testing.T) {
	for name, base := range strategies() {
		opts := base
		opts.MaxDepth = 16
		full := Run(&porToySys{}, opts)
		opts.POR = true
		res := Run(&porToySys{}, opts)
		if res.StatesExplored != 9 || res.StatesMatched != full.StatesMatched || res.PORChoicePoints != 0 ||
			res.PORPrunedTransitions != 0 || !res.HasViolation("reach-22") {
			t.Errorf("%s: explored %d, matched %d (unreduced %d), %d choices, %d pruned, violation %v; want the full 9-state graph",
				name, res.StatesExplored, res.StatesMatched, full.StatesMatched, res.PORChoicePoints,
				res.PORPrunedTransitions, res.HasViolation("reach-22"))
		}
	}
}

// TestPORAppliesToAllStrategies: a certified reducer's subsets are taken
// as they are, and the reduced graph is the same for DFS and
// work-stealing — POR routes through engine.enabled on both.
func TestPORAppliesToAllStrategies(t *testing.T) {
	for name, base := range strategies() {
		opts := base
		opts.MaxDepth = 16
		opts.POR = true
		res := Run(&porToySys{certifies: true}, opts)
		if !res.HasViolation("reach-22") {
			t.Errorf("%s: violation masked under POR", name)
		}
		if res.StatesExplored != 5 || res.StatesMatched != 0 {
			t.Errorf("%s: explored %d states, matched %d, want the reduced chain's 5 and 0", name, res.StatesExplored, res.StatesMatched)
		}
		if res.PORChoicePoints != 2 || res.PORPrunedTransitions != 2 {
			t.Errorf("%s: %d choices, %d pruned, want 2 and 2", name, res.PORChoicePoints, res.PORPrunedTransitions)
		}
	}
}

// TestPORCertifiedSkipsProviso: there is no visited-state proviso — a
// certified reducer's subset is taken as it is even when its selected
// successor is already visited. With (0,0) unreduced, DFS reaches (2,1)
// along the chain first, so the choice point (1,1) selects only a
// visited state; a proviso would fall back there and add (1,2). Taken
// as they are, the subsets give 7 states and one match on every
// strategy, with (1,0), (0,1) and (1,1) reduced.
func TestPORCertifiedSkipsProviso(t *testing.T) {
	for name, base := range strategies() {
		opts := base
		opts.MaxDepth = 16
		opts.POR = true
		res := Run(&porToySys{certifies: true, fullAtOrigin: true}, opts)
		if !res.HasViolation("reach-22") {
			t.Errorf("%s: violation masked under POR", name)
		}
		if res.StatesExplored != 7 || res.StatesMatched != 1 {
			t.Errorf("%s: explored %d states, matched %d, want 7 and 1", name, res.StatesExplored, res.StatesMatched)
		}
		if res.PORChoicePoints != 3 || res.PORPrunedTransitions != 3 {
			t.Errorf("%s: %d choices, %d pruned, want 3 and 3", name, res.PORChoicePoints, res.PORPrunedTransitions)
		}
	}
}
