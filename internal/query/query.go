// Package query is the composable query DSL of the serving tier: a tiny
// language over the paper's search primitives, a statistics-free greedy
// planner that expands each statement into fixed-shape plan nodes and picks
// an access path (prebuilt index, online LocalSearch, or the truss index)
// per node, the one executor (Exec) that runs a node against a pinned
// snapshot and decides the path that actually answers it, and a
// work-sharing primitive (Sharer) that computes identical plan nodes
// exactly once across concurrent queries.
//
// A batch is one or more statements separated by ';'. Each statement is a
// source followed by a pipeline of filters:
//
//	batch     := statement ( ';' statement )* [';']
//	statement := source { '|' filter }
//	source    := ('topk' | 'near') '(' [arg {',' arg}] ')'
//	arg       := 'k' '=' INT
//	           | 'gamma' '=' INT [ '..' INT ]
//	           | 'semantics' '=' SEM { '+' SEM }
//	           | 'seeds' '=' '[' INT {',' INT} ']'
//	SEM       := 'core' | 'noncontainment' | 'truss'
//	filter    := 'label' '(' STRING ')'
//	           | 'influence' '(' CMP NUMBER ')'
//	           | 'size' '(' CMP INT ')'
//	           | 'limit' '(' INT ')'
//	CMP       := '>=' | '>' | '<=' | '<' | '=' | '!='
//
// topk is the paper's fixed-shape top-k query; a gamma range and a '+'
// semantics combinator expand into one plan node per (γ, semantics) pair.
// near is the seed-scoped variant (TopKNearQuery): vertex weights become
// reciprocal hop distances to the seed set before the search runs. Filters
// select from a node's top-k result in pipeline order — they never change
// what the underlying decomposition computes, which is what keeps plan
// nodes shareable across queries that filter differently.
//
// Every construct has one canonical spelling; Query.String (and
// Statement.String, Node key printing) emit it, and Parse of a canonical
// form reproduces it exactly — the parse→print→parse fixpoint FuzzParseQuery
// pins. Canonical node keys are the common-subexpression identity the
// batch executor shares work on.
package query

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Query semantics names; the values match the serving tier's "mode" fields.
const (
	SemCore           = "core"
	SemNonContainment = "noncontainment"
	SemTruss          = "truss"
)

// Defaults applied when a source omits an argument.
const (
	DefaultK     = 10
	DefaultGamma = 5
)

// Query is one parsed batch: a sequence of statements that execute against
// the same dataset snapshot and share identical plan nodes.
type Query struct {
	Statements []*Statement
}

// String renders the canonical form of the batch: statements joined by
// "; ", each in its canonical spelling.
func (q *Query) String() string {
	parts := make([]string, len(q.Statements))
	for i, st := range q.Statements {
		parts[i] = st.String()
	}
	return strings.Join(parts, "; ")
}

// Statement is one source with its filter pipeline.
type Statement struct {
	Source  Source
	Filters []Filter
}

// String renders the canonical form of the statement.
func (s *Statement) String() string {
	var b strings.Builder
	b.WriteString(s.Source.String())
	for _, f := range s.Filters {
		b.WriteString(" | ")
		b.WriteString(f.String())
	}
	return b.String()
}

// Source is the search a statement runs before filtering: a fixed-shape
// top-k (Seeds nil) or a seed-scoped near query (Seeds non-empty), over one
// γ value or range, under one or more semantics.
type Source struct {
	// Seeds, when non-empty, selects the near form: weights are recomputed
	// as reciprocal hop distances to these seed vertices (rank IDs of the
	// served graph). Canonicalized sorted ascending without duplicates.
	Seeds []int32
	// K is the per-node result bound.
	K int
	// GammaLo and GammaHi bound the γ range; equal for a single value.
	GammaLo, GammaHi int32
	// Semantics holds the requested semantics in canonical order (core,
	// noncontainment, truss), without duplicates.
	Semantics []string
}

// Near reports whether the source is the seed-scoped form.
func (s *Source) Near() bool { return len(s.Seeds) > 0 }

// String renders the canonical form of the source.
func (s *Source) String() string {
	var b strings.Builder
	b.Grow(48) // a single-γ topk source in one allocation
	if s.Near() {
		b.WriteString("near(seeds=[")
		for i, sd := range s.Seeds {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Itoa(int(sd)))
		}
		b.WriteString("], ")
	} else {
		b.WriteString("topk(")
	}
	b.WriteString("k=")
	b.WriteString(strconv.Itoa(s.K))
	b.WriteString(", gamma=")
	b.WriteString(strconv.Itoa(int(s.GammaLo)))
	if s.GammaHi != s.GammaLo {
		b.WriteString("..")
		b.WriteString(strconv.Itoa(int(s.GammaHi)))
	}
	b.WriteString(", semantics=")
	b.WriteString(strings.Join(s.Semantics, "+"))
	b.WriteByte(')')
	return b.String()
}

// Filter kinds.
const (
	FilterLabel     = "label"
	FilterInfluence = "influence"
	FilterSize      = "size"
	FilterLimit     = "limit"
)

// Filter is one pipeline stage: a post-selection predicate (or truncation)
// over a plan node's communities. Filters run in pipeline order, so
// "| influence(>=2) | limit(3)" keeps the three best communities above the
// threshold while "| limit(3) | influence(>=2)" thresholds only the first
// three.
type Filter struct {
	// Name is the filter kind: FilterLabel, FilterInfluence, FilterSize,
	// or FilterLimit.
	Name string
	// Op is the comparison operator of influence/size filters: ">=", ">",
	// "<=", "<", "=", or "!=".
	Op string
	// Num is the influence threshold.
	Num float64
	// Int is the size threshold or the limit count.
	Int int
	// Pattern is the label glob ('*' matches any run of characters).
	Pattern string
}

// String renders the canonical form of the filter.
func (f Filter) String() string {
	switch f.Name {
	case FilterLabel:
		return `label("` + f.Pattern + `")`
	case FilterInfluence:
		return "influence(" + f.Op + formatNumber(f.Num) + ")"
	case FilterSize:
		return "size(" + f.Op + strconv.Itoa(f.Int) + ")"
	default: // FilterLimit
		return "limit(" + strconv.Itoa(f.Int) + ")"
	}
}

// Keep reports whether a community with the given influence, size, and
// member labels passes this filter. Limit filters always report true here;
// callers handle truncation (see cluster.ApplyDSLFilters).
func (f Filter) Keep(influence float64, size int, labels []string) bool {
	switch f.Name {
	case FilterLabel:
		for _, l := range labels {
			if f.MatchLabel(l) {
				return true
			}
		}
		// A graph without labels can only pass the match-anything pattern.
		return len(labels) == 0 && f.Pattern == "*"
	case FilterInfluence:
		return cmpFloat(f.Op, influence, f.Num)
	case FilterSize:
		return cmpFloat(f.Op, float64(size), float64(f.Int))
	default:
		return true
	}
}

// MatchLabel reports whether one member label matches a label filter's
// pattern: a community passes the filter when any member label matches.
func (f Filter) MatchLabel(l string) bool { return globMatch(f.Pattern, l) }

func cmpFloat(op string, a, b float64) bool {
	switch op {
	case ">=":
		return a >= b
	case ">":
		return a > b
	case "<=":
		return a <= b
	case "<":
		return a < b
	case "=":
		return a == b
	default: // "!="
		return a != b
	}
}

// globMatch matches s against a pattern where '*' matches any (possibly
// empty) run of characters and every other byte matches itself.
func globMatch(pattern, s string) bool {
	segs := strings.Split(pattern, "*")
	if len(segs) == 1 {
		return pattern == s
	}
	if !strings.HasPrefix(s, segs[0]) {
		return false
	}
	s = s[len(segs[0]):]
	for _, seg := range segs[1 : len(segs)-1] {
		i := strings.Index(s, seg)
		if i < 0 {
			return false
		}
		s = s[i+len(seg):]
	}
	return strings.HasSuffix(s, segs[len(segs)-1])
}

// formatNumber renders a float in its canonical (shortest round-trip)
// form, so printing and re-parsing a filter threshold is a fixpoint.
func formatNumber(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// semRank orders semantics canonically: core < noncontainment < truss.
func semRank(s string) int {
	switch s {
	case SemCore:
		return 0
	case SemNonContainment:
		return 1
	default:
		return 2
	}
}

// normalize canonicalizes and validates a parsed source in place: defaults
// applied, seeds sorted and deduplicated, semantics sorted and
// deduplicated, bounds checked.
func (s *Source) normalize() error {
	if s.K == 0 {
		s.K = DefaultK
	}
	if s.GammaLo == 0 {
		s.GammaLo, s.GammaHi = DefaultGamma, DefaultGamma
	}
	if len(s.Semantics) == 0 {
		s.Semantics = []string{SemCore}
	}
	if s.K < 1 {
		return fmt.Errorf("query: k must be >= 1, got %d", s.K)
	}
	if s.GammaLo < 1 {
		return fmt.Errorf("query: gamma must be >= 1, got %d", s.GammaLo)
	}
	if s.GammaHi < s.GammaLo {
		return fmt.Errorf("query: empty gamma range %d..%d", s.GammaLo, s.GammaHi)
	}
	sort.Slice(s.Semantics, func(i, j int) bool { return semRank(s.Semantics[i]) < semRank(s.Semantics[j]) })
	dedupSem := s.Semantics[:0]
	for i, sem := range s.Semantics {
		if i == 0 || sem != s.Semantics[i-1] {
			dedupSem = append(dedupSem, sem)
		}
	}
	s.Semantics = dedupSem
	if s.Near() {
		sort.Slice(s.Seeds, func(i, j int) bool { return s.Seeds[i] < s.Seeds[j] })
		dedup := s.Seeds[:0]
		for i, sd := range s.Seeds {
			if sd < 0 {
				return fmt.Errorf("query: negative seed %d", sd)
			}
			if i == 0 || sd != s.Seeds[i-1] {
				dedup = append(dedup, sd)
			}
		}
		s.Seeds = dedup
		for _, sem := range s.Semantics {
			if sem == SemTruss {
				return fmt.Errorf("query: near supports core and noncontainment semantics, not truss (the truss index is built per dataset, not per reweighting)")
			}
		}
	}
	return nil
}
