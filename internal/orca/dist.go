// Package orca is the Memo-based optimizer of the paper's §3.1: a
// Cascades-style framework in which data distribution and partition
// propagation are both physical properties carried in optimization
// requests. Motion is the enforcer of the distribution property;
// PartitionSelector is the enforcer of the partition-propagation property.
//
// The search space mirrors the paper's Figure 13: logical expressions are
// grouped in a Memo, join commutativity populates groups with both child
// orders, and each incoming request {distribution, partition-selection
// specs} is optimized per group with memoized results. The critical
// process-colocation rule is enforced structurally: a Motion is never
// plugged on top of a request that still carries a spec whose DynamicScan
// lives outside the subtree, and a PartitionSelector placed at its own
// scan's group rejects child plans rooted by Motions.
package orca

import (
	"strconv"
	"strings"

	"partopt/internal/catalog"
	"partopt/internal/expr"
)

// DistKind classifies distribution requirements and deliveries.
type DistKind uint8

// Distribution kinds (paper §3.1).
const (
	AnyDist        DistKind = iota // no requirement
	HashedDist                     // co-located by hash of columns
	ReplicatedDist                 // full copy on every segment
	SingletonDist                  // every row in the coordinator process
)

func (k DistKind) String() string {
	switch k {
	case HashedDist:
		return "hashed"
	case ReplicatedDist:
		return "replicated"
	case SingletonDist:
		return "singleton"
	default:
		return "any"
	}
}

// DistSpec is a distribution property.
type DistSpec struct {
	Kind DistKind
	Cols []expr.ColID // hash columns (HashedDist)
}

// AnySpec returns the no-requirement distribution.
func AnySpec() DistSpec { return DistSpec{Kind: AnyDist} }

// HashedOn returns a hash-distribution spec.
func HashedOn(cols ...expr.ColID) DistSpec {
	return DistSpec{Kind: HashedDist, Cols: cols}
}

// Replicated returns the replicated distribution spec.
func Replicated() DistSpec { return DistSpec{Kind: ReplicatedDist} }

// Singleton returns the on-the-coordinator distribution: what the root of
// every SELECT requires and what a Gather Motion (or the Final stage of an
// aggregate above one) delivers.
func Singleton() DistSpec { return DistSpec{Kind: SingletonDist} }

// Satisfies reports whether a delivered distribution meets a required one.
func (d DistSpec) Satisfies(req DistSpec) bool {
	if req.Kind == AnyDist {
		return true
	}
	if d.Kind != req.Kind {
		return false
	}
	if d.Kind == HashedDist {
		if len(d.Cols) != len(req.Cols) {
			return false
		}
		for i := range d.Cols {
			if d.Cols[i] != req.Cols[i] {
				return false
			}
		}
	}
	return true
}

// SpecReq is one partition-propagation requirement inside an optimization
// request: "a PartitionSelector for this DynamicScan must be placed in the
// plan satisfying this request" (the Memo-side PartSelectorSpec).
type SpecReq struct {
	ScanRel int // partScanId == relation instance id of the DynamicScan
	Table   *catalog.Table
	Keys    []expr.ColID // per partitioning level
	Preds   []expr.Expr  // per level; nil entries mean unconstrained

	// ckey memoizes key(). Preds are only mutated between clone() and the
	// spec's first appearance in a request, so the rendered key is stable by
	// the time anyone asks for it.
	ckey string

	// id is the spec's interned identity in the memo owner (memo.specID):
	// equal ids mean equal ckeys. It is valid only while owner is the memo
	// asking, so an id never leaks from one search into another.
	owner *memo
	id    int32
}

func (s *SpecReq) clone() *SpecReq {
	preds := make([]expr.Expr, len(s.Preds))
	copy(preds, s.Preds)
	return &SpecReq{ScanRel: s.ScanRel, Table: s.Table, Keys: s.Keys, Preds: preds}
}

// key renders the spec's identity: its scan and every level predicate. It
// is computed once per spec, as the input to the memo's interner.
func (s *SpecReq) key() string {
	if s.ckey != "" {
		return s.ckey
	}
	var b strings.Builder
	b.WriteByte('<')
	b.WriteString(strconv.Itoa(s.ScanRel))
	for _, p := range s.Preds {
		b.WriteByte(';')
		if p != nil {
			b.WriteString(p.String())
		}
	}
	b.WriteByte('>')
	s.ckey = b.String()
	return s.ckey
}

// request is one optimization request: required distribution plus the
// partition-propagation specs to resolve within the subtree.
type request struct {
	dist  DistSpec
	specs []*SpecReq
}

// without returns the request minus the i-th spec.
func (r request) without(i int) request {
	specs := make([]*SpecReq, 0, len(r.specs)-1)
	specs = append(specs, r.specs[:i]...)
	specs = append(specs, r.specs[i+1:]...)
	return request{dist: r.dist, specs: specs}
}

// withDist returns the request with a different distribution requirement.
func (r request) withDist(d DistSpec) request {
	return request{dist: d, specs: r.specs}
}
