// Package depgraph implements IotSan's App Dependency Analyzer (§5).
//
// The model checker should not have to check interactions between event
// handlers that cannot interact. This package builds the directed
// dependency graph over event handlers (an edge u→v when u's output
// events overlap v's input events), merges strongly connected components
// into composite vertices, computes each leaf's related set (the leaf
// plus all its ancestors), merges related sets whose members have
// conflicting output events, and finally drops sets subsumed by larger
// ones. The surviving related sets are what the model checker analyses
// jointly, which is the paper's first defence against state explosion
// (mean 3.4× problem-size reduction, Table 7a).
package depgraph

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"iotsan/internal/smartapp"
)

// Vertex is one node of the dependency graph: a single event handler, or
// a composite of handlers after SCC merging.
type Vertex struct {
	ID       int
	Handlers []smartapp.HandlerInfo // one entry normally; several for composites
	// HandlerIdx holds, parallel to Handlers, each handler's position in
	// the slice passed to Build, so callers can correlate graph vertices
	// back to their own per-handler metadata by index instead of by
	// identity heuristics.
	HandlerIdx []int
	Inputs     []smartapp.EventSig
	Outputs    []smartapp.EventSig
	Children   []int
	Parents    []int
}

// Graph is the dependency graph of a set of apps.
type Graph struct {
	Vertices []*Vertex
}

// RelatedSet is a set of vertices that must be analysed jointly.
type RelatedSet struct {
	VertexIDs []int // sorted
}

// subsetOf reports whether rs ⊆ other. Both lists are sorted, so one
// merge pass decides it.
func (rs RelatedSet) subsetOf(other RelatedSet) bool {
	if len(rs.VertexIDs) > len(other.VertexIDs) {
		return false
	}
	j := 0
	for _, v := range rs.VertexIDs {
		for j < len(other.VertexIDs) && other.VertexIDs[j] < v {
			j++
		}
		if j == len(other.VertexIDs) || other.VertexIDs[j] != v {
			return false
		}
		j++
	}
	return true
}

func (rs RelatedSet) String() string {
	parts := make([]string, len(rs.VertexIDs))
	for i, v := range rs.VertexIDs {
		parts[i] = fmt.Sprint(v)
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Build constructs the dependency graph for the handlers of a set of
// apps, merging strongly connected components into composite vertices.
func Build(handlers []smartapp.HandlerInfo) *Graph {
	// Raw graph: one vertex per handler.
	n := len(handlers)
	adj := make([][]int, n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v {
				continue
			}
			if overlaps(handlers[u].Outputs, handlers[v].Inputs) {
				adj[u] = append(adj[u], v)
			}
		}
	}

	comp := tarjanSCC(n, adj)
	ncomp := 0
	for _, c := range comp {
		if c+1 > ncomp {
			ncomp = c + 1
		}
	}

	g := &Graph{Vertices: make([]*Vertex, ncomp)}
	for c := 0; c < ncomp; c++ {
		g.Vertices[c] = &Vertex{ID: c}
	}
	for i, h := range handlers {
		v := g.Vertices[comp[i]]
		v.Handlers = append(v.Handlers, h)
		v.HandlerIdx = append(v.HandlerIdx, i)
		for _, sig := range h.Inputs {
			v.Inputs = appendSig(v.Inputs, sig)
		}
		for _, sig := range h.Outputs {
			v.Outputs = appendSig(v.Outputs, sig)
		}
	}
	edge := map[[2]int]bool{}
	for u := 0; u < n; u++ {
		for _, v := range adj[u] {
			cu, cv := comp[u], comp[v]
			if cu != cv && !edge[[2]int{cu, cv}] {
				edge[[2]int{cu, cv}] = true
				g.Vertices[cu].Children = append(g.Vertices[cu].Children, cv)
				g.Vertices[cv].Parents = append(g.Vertices[cv].Parents, cu)
			}
		}
	}
	for _, v := range g.Vertices {
		sort.Ints(v.Children)
		sort.Ints(v.Parents)
	}
	return g
}

func appendSig(sigs []smartapp.EventSig, s smartapp.EventSig) []smartapp.EventSig {
	for _, x := range sigs {
		if x == s {
			return sigs
		}
	}
	return append(sigs, s)
}

func overlaps(outs, ins []smartapp.EventSig) bool {
	for _, o := range outs {
		for _, i := range ins {
			if o.Overlaps(i) {
				return true
			}
		}
	}
	return false
}

func conflicts(a, b []smartapp.EventSig) bool {
	for _, x := range a {
		for _, y := range b {
			if x.Conflicts(y) {
				return true
			}
		}
	}
	return false
}

// tarjanSCC returns the condensation component index of each vertex.
// Components are renumbered in vertex order for deterministic output.
func tarjanSCC(n int, adj [][]int) []int {
	const unvisited = -1
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	comp := make([]int, n)
	for i := range index {
		index[i] = unvisited
		comp[i] = unvisited
	}
	var stack []int
	next := 0
	ncomp := 0

	var strongconnect func(v int)
	strongconnect = func(v int) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if index[w] == unvisited {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp[w] = ncomp
				if w == v {
					break
				}
			}
			ncomp++
		}
	}
	for v := 0; v < n; v++ {
		if index[v] == unvisited {
			strongconnect(v)
		}
	}

	// Renumber components by first-vertex order so vertex 0's component
	// is component 0, matching the paper's figures.
	remap := make([]int, ncomp)
	for i := range remap {
		remap[i] = -1
	}
	k := 0
	for v := 0; v < n; v++ {
		if remap[comp[v]] == -1 {
			remap[comp[v]] = k
			k++
		}
	}
	for v := 0; v < n; v++ {
		comp[v] = remap[comp[v]]
	}
	return comp
}

// InitialSets returns the related set of every leaf vertex: the leaf and
// all of its ancestors (Table 3a).
func (g *Graph) InitialSets() []RelatedSet {
	var sets []RelatedSet
	mark := make([]bool, len(g.Vertices))
	for _, v := range g.Vertices {
		if len(v.Children) > 0 {
			continue // not a leaf
		}
		ids := []int{v.ID}
		mark[v.ID] = true
		for k := 0; k < len(ids); k++ { // ids doubles as the climb's queue
			for _, p := range g.Vertices[ids[k]].Parents {
				if !mark[p] {
					mark[p] = true
					ids = append(ids, p)
				}
			}
		}
		for _, id := range ids {
			mark[id] = false
		}
		slices.Sort(ids)
		sets = append(sets, RelatedSet{VertexIDs: ids})
	}
	slices.SortFunc(sets, compareSets)
	return sets
}

// ConflictSets returns, for each pair of vertices with conflicting output
// events, the union of the initial related sets containing either vertex
// (Table 3b).
func (g *Graph) ConflictSets(initial []RelatedSet) []RelatedSet {
	// in[v] lists, ascending, the initial sets containing vertex v. A
	// pair's union is named by the merge of its two lists, so pairs that
	// name the same initial sets are unioned once.
	in := make([][]int, len(g.Vertices))
	for i, rs := range initial {
		for _, id := range rs.VertexIDs {
			in[id] = append(in[id], i)
		}
	}
	var keys [][]int
	for u := range g.Vertices {
		for v := u + 1; v < len(g.Vertices); v++ {
			if len(in[u])+len(in[v]) == 0 || !conflicts(g.Vertices[u].Outputs, g.Vertices[v].Outputs) {
				continue
			}
			keys = append(keys, mergeIDs(in[u], in[v]))
		}
	}
	slices.SortFunc(keys, slices.Compare)
	keys = slices.CompactFunc(keys, slices.Equal)

	out := make([]RelatedSet, 0, len(keys))
	mark := make([]bool, len(g.Vertices))
	for _, k := range keys {
		var ids []int
		for _, i := range k {
			for _, id := range initial[i].VertexIDs {
				if !mark[id] {
					mark[id] = true
					ids = append(ids, id)
				}
			}
		}
		for _, id := range ids {
			mark[id] = false
		}
		slices.Sort(ids)
		out = append(out, RelatedSet{VertexIDs: ids})
	}
	return sortedUnique(out)
}

// mergeIDs returns the sorted union of two ascending id lists.
func mergeIDs(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			out, a = append(out, a[0]), a[1:]
		case b[0] < a[0]:
			out, b = append(out, b[0]), b[1:]
		default:
			out, a, b = append(out, a[0]), a[1:], b[1:]
		}
	}
	return append(append(out, a...), b...)
}

// FinalSets computes the related sets the model checker verifies: the
// initial and conflict-merged sets with every subset of a bigger set
// removed (Table 3c).
func (g *Graph) FinalSets() []RelatedSet {
	initial := g.InitialSets()
	all := sortedUnique(slices.Concat(initial, g.ConflictSets(initial)))
	var out []RelatedSet
	for i, rs := range all {
		subsumed := false
		for j, other := range all {
			// all holds distinct sets: a subset of another is a proper one.
			if i != j && rs.subsetOf(other) {
				subsumed = true
				break
			}
		}
		if !subsumed {
			out = append(out, rs)
		}
	}
	return out
}

// sortedUnique sorts sets by their id lists and drops repeats, in place.
func sortedUnique(sets []RelatedSet) []RelatedSet {
	slices.SortFunc(sets, compareSets)
	return slices.CompactFunc(sets, func(a, b RelatedSet) bool { return slices.Equal(a.VertexIDs, b.VertexIDs) })
}

// compareSets orders related sets lexicographically by their id lists.
func compareSets(a, b RelatedSet) int { return slices.Compare(a.VertexIDs, b.VertexIDs) }

// HandlerIndices returns the positions (in the handler slice passed to
// Build) of a related set's handlers, in vertex order, for callers
// that keep per-handler metadata indexed by build order.
func (g *Graph) HandlerIndices(rs RelatedSet) []int {
	var out []int
	for _, id := range rs.VertexIDs {
		out = append(out, g.Vertices[id].HandlerIdx...)
	}
	return out
}

// ScaleStats reports the problem-size reduction of dependency analysis
// for one group of apps (Table 7a): the total number of event handlers
// versus the largest related set.
type ScaleStats struct {
	OriginalSize int
	NewSize      int
}

// Ratio returns OriginalSize/NewSize (1 when there is nothing to do).
func (s ScaleStats) Ratio() float64 {
	if s.NewSize == 0 {
		return 1
	}
	return float64(s.OriginalSize) / float64(s.NewSize)
}

// Scale computes the scale statistics of a handler set.
func Scale(handlers []smartapp.HandlerInfo) ScaleStats {
	g := Build(handlers)
	return g.Scale(g.FinalSets())
}

// Scale computes the scale statistics of the graph's handlers, given
// its final related sets (FinalSets).
func (g *Graph) Scale(final []RelatedSet) ScaleStats {
	var stats ScaleStats
	for _, v := range g.Vertices {
		stats.OriginalSize += len(v.Handlers)
	}
	for _, rs := range final {
		size := 0
		for _, id := range rs.VertexIDs {
			size += len(g.Vertices[id].Handlers)
		}
		if size > stats.NewSize {
			stats.NewSize = size
		}
	}
	return stats
}

// RW is a handler's read/write event-signature footprint, the input to
// the static independence relation. Reads carry no value constraint
// (a read observes whatever value the attribute holds); writes may be
// value-constrained (switch/on) or not.
type RW struct {
	Reads  []smartapp.EventSig
	Writes []smartapp.EventSig
}

// Independent reports whether two handlers with the given footprints
// are independent in the partial-order-reduction sense: executing them
// in either order from the same state reads and writes disjoint,
// non-conflicting event signatures, so the executions commute. The
// seeds are the same predicates dependency analysis builds the graph
// from — a write Overlaps a read when it can be observed by it, and two
// writes interfere when they Overlap (same attribute, compatible
// values: repeated-command interference) or Conflict (same attribute,
// different values).
//
// Read/read overlap is deliberately NOT a dependence: two handlers
// observing the same attribute commute as long as neither changes it.
func Independent(a, b RW) bool {
	if overlaps(a.Writes, b.Reads) || overlaps(b.Writes, a.Reads) {
		return false
	}
	if overlaps(a.Writes, b.Writes) || conflicts(a.Writes, b.Writes) {
		return false
	}
	return true
}
