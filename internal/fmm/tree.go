package fmm

import (
	"fmt"
	"math"
)

// nilNode marks an absent child or parent.
const nilNode = -1

// Node is one box (octant) of the adaptive octree. Nodes are stored in a
// flat slice and referenced by index; children of a split node are
// created in Morton octant order.
type Node struct {
	Center   Point
	Half     float64 // half the box edge length
	Level    int     // root is level 0
	Parent   int     // nilNode for the root
	Children [8]int  // nilNode entries when absent (leaves have all nilNode)
	Octant   int     // this node's octant index within its parent
	Leaf     bool

	// SrcStart/SrcEnd delimit this node's source points in the tree's
	// permuted source array; TrgStart/TrgEnd likewise for targets.
	// Internal nodes cover the union of their children. When the tree is
	// built over a single point set the two ranges coincide.
	SrcStart, SrcEnd int
	TrgStart, TrgEnd int

	// Interaction lists (paper Fig. 3), as node indices. U and W are only
	// populated for leaves; V for every node; X for nodes that appear in
	// some leaf's W list.
	U, V, W, X []int32
}

// NumSources returns the number of source points in the node's subtree.
func (n *Node) NumSources() int { return n.SrcEnd - n.SrcStart }

// NumTargets returns the number of target points in the node's subtree.
func (n *Node) NumTargets() int { return n.TrgEnd - n.TrgStart }

// Tree is an adaptive octree over a source and a target point set (the
// paper's y_j and x_i of Eq. 10; they may be the same set). Points are
// permuted so that each node owns contiguous ranges of both arrays.
type Tree struct {
	Nodes []Node

	Src     []Point // permuted copy of the source points
	SrcPerm []int   // Src[i] == original sources[SrcPerm[i]]
	Trg     []Point // permuted copy of the target points
	TrgPerm []int   // Trg[i] == original targets[TrgPerm[i]]

	// Shared reports whether sources and targets are one set (Trg and
	// TrgPerm alias Src and SrcPerm).
	Shared bool

	Root      int
	MaxLeaf   int // the Q parameter: maximum points per leaf (per side)
	MaxLevel  int
	numLeaves int
	maxDepth  int
}

// Points returns the permuted source array; Perm its permutation. These
// accessors serve the common sources == targets case.
func (t *Tree) Points() []Point { return t.Src }

// Perm returns the source permutation (see Points).
func (t *Tree) Perm() []int { return t.SrcPerm }

// BuildTree constructs an adaptive octree over a single point set acting
// as both sources and targets, splitting any box with more than q points
// (the paper's Q parameter) until maxLevel.
func BuildTree(pts []Point, q, maxLevel int) (*Tree, error) {
	return buildTree(pts, nil, q, maxLevel, true)
}

// BuildDualTree constructs an adaptive octree over distinct source and
// target sets. A box splits while either side holds more than q points.
func BuildDualTree(targets, sources []Point, q, maxLevel int) (*Tree, error) {
	return buildTree(sources, targets, q, maxLevel, false)
}

func buildTree(src, trg []Point, q, maxLevel int, shared bool) (*Tree, error) {
	if len(src) == 0 {
		return nil, fmt.Errorf("fmm: no source points")
	}
	if !shared && len(trg) == 0 {
		return nil, fmt.Errorf("fmm: no target points")
	}
	if q < 1 {
		return nil, fmt.Errorf("fmm: invalid leaf capacity Q=%d", q)
	}
	if maxLevel < 0 || maxLevel > 30 {
		return nil, fmt.Errorf("fmm: invalid max level %d", maxLevel)
	}
	// A NaN or infinite coordinate would make the bounding cube
	// non-finite and the tree degenerate into silent garbage.
	if i := nonFinite(src); i >= 0 {
		return nil, fmt.Errorf("fmm: source point %d has non-finite coordinate", i)
	}
	if i := nonFinite(trg); i >= 0 {
		return nil, fmt.Errorf("fmm: target point %d has non-finite coordinate", i)
	}

	// Bounding cube over both sets, slightly padded so boundary points
	// fall strictly inside.
	lo, hi := src[0], src[0]
	expand := func(pts []Point) {
		for _, p := range pts {
			lo.X = math.Min(lo.X, p.X)
			lo.Y = math.Min(lo.Y, p.Y)
			lo.Z = math.Min(lo.Z, p.Z)
			hi.X = math.Max(hi.X, p.X)
			hi.Y = math.Max(hi.Y, p.Y)
			hi.Z = math.Max(hi.Z, p.Z)
		}
	}
	expand(src)
	if !shared {
		expand(trg)
	}
	center := Point{(lo.X + hi.X) / 2, (lo.Y + hi.Y) / 2, (lo.Z + hi.Z) / 2}
	half := math.Max(hi.X-lo.X, math.Max(hi.Y-lo.Y, hi.Z-lo.Z))/2*1.0001 + 1e-12

	t := &Tree{
		Src:      append([]Point(nil), src...),
		SrcPerm:  identity(len(src)),
		Shared:   shared,
		MaxLeaf:  q,
		MaxLevel: maxLevel,
	}
	if shared {
		t.Trg = t.Src
		t.TrgPerm = t.SrcPerm
	} else {
		t.Trg = append([]Point(nil), trg...)
		t.TrgPerm = identity(len(trg))
	}
	t.Root = t.addNode(Node{
		Center: center, Half: half, Level: 0,
		Parent: nilNode, Octant: 0,
		SrcStart: 0, SrcEnd: len(src),
		TrgStart: 0, TrgEnd: len(t.Trg),
	})
	t.split(t.Root)
	return t, nil
}

// nonFinite returns the index of the first point with a NaN or infinite
// coordinate, or -1.
func nonFinite(pts []Point) int {
	for i, p := range pts {
		for _, v := range [3]float64{p.X, p.Y, p.Z} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return i
			}
		}
	}
	return -1
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func (t *Tree) addNode(n Node) int {
	for i := range n.Children {
		n.Children[i] = nilNode
	}
	t.Nodes = append(t.Nodes, n)
	return len(t.Nodes) - 1
}

// octantOf returns the octant (0..7) of p relative to center c: bit 0 for
// x, bit 1 for y, bit 2 for z.
func octantOf(p, c Point) int {
	o := 0
	if p.X >= c.X {
		o |= 1
	}
	if p.Y >= c.Y {
		o |= 2
	}
	if p.Z >= c.Z {
		o |= 4
	}
	return o
}

// octantCenter returns the center of octant o of a box at c with half
// width h.
func octantCenter(c Point, h float64, o int) Point {
	q := h / 2
	d := Point{-q, -q, -q}
	if o&1 != 0 {
		d.X = q
	}
	if o&2 != 0 {
		d.Y = q
	}
	if o&4 != 0 {
		d.Z = q
	}
	return c.Add(d)
}

// partitionOctants stably partitions pts[start:end] (and the parallel
// perm entries) into the 8 octant buckets around center, returning the
// per-octant offsets and counts.
func partitionOctants(pts []Point, perm []int, start, end int, center Point) (offsets, counts [8]int) {
	for p := start; p < end; p++ {
		counts[octantOf(pts[p], center)]++
	}
	sum := start
	for o := 0; o < 8; o++ {
		offsets[o] = sum
		sum += counts[o]
	}
	permuted := make([]Point, end-start)
	permIdx := make([]int, end-start)
	cursor := offsets
	for p := start; p < end; p++ {
		o := octantOf(pts[p], center)
		permuted[cursor[o]-start] = pts[p]
		permIdx[cursor[o]-start] = perm[p]
		cursor[o]++
	}
	copy(pts[start:end], permuted)
	copy(perm[start:end], permIdx)
	return offsets, counts
}

// split recursively subdivides node i while either side holds more than
// MaxLeaf points and the level budget allows.
func (t *Tree) split(i int) {
	n := &t.Nodes[i]
	if (n.NumSources() <= t.MaxLeaf && n.NumTargets() <= t.MaxLeaf) || n.Level >= t.MaxLevel {
		n.Leaf = true
		t.numLeaves++
		if n.Level > t.maxDepth {
			t.maxDepth = n.Level
		}
		return
	}
	center := n.Center
	srcOff, srcCnt := partitionOctants(t.Src, t.SrcPerm, n.SrcStart, n.SrcEnd, center)
	trgOff, trgCnt := srcOff, srcCnt
	if !t.Shared {
		trgOff, trgCnt = partitionOctants(t.Trg, t.TrgPerm, n.TrgStart, n.TrgEnd, center)
	}

	level := n.Level
	half := n.Half
	for o := 0; o < 8; o++ {
		if srcCnt[o] == 0 && trgCnt[o] == 0 {
			continue
		}
		child := t.addNode(Node{
			Center:   octantCenter(center, half, o),
			Half:     half / 2,
			Level:    level + 1,
			Parent:   i,
			Octant:   o,
			SrcStart: srcOff[o], SrcEnd: srcOff[o] + srcCnt[o],
			TrgStart: trgOff[o], TrgEnd: trgOff[o] + trgCnt[o],
		})
		// n may have been invalidated by append; re-take via index.
		t.Nodes[i].Children[o] = child
		t.split(child)
	}
}

// NumLeaves returns the number of leaf boxes.
func (t *Tree) NumLeaves() int { return t.numLeaves }

// Depth returns the deepest leaf level.
func (t *Tree) Depth() int { return t.maxDepth }

// Leaves returns the indices of all leaf nodes in construction order.
func (t *Tree) Leaves() []int {
	out := make([]int, 0, t.numLeaves)
	for i := range t.Nodes {
		if t.Nodes[i].Leaf {
			out = append(out, i)
		}
	}
	return out
}

// adjacent reports whether boxes a and b share at least a boundary point.
// With dyadic box coordinates an exact tolerance-free comparison would be
// fragile under floating point, so a relative epsilon is used.
func adjacent(a, b *Node) bool {
	gap := a.Center.Sub(b.Center).MaxAbs() - (a.Half + b.Half)
	return gap <= 1e-9*(a.Half+b.Half)
}

// Validate checks the structural invariants of the tree. It is exercised
// by tests and usable as a debugging aid.
func (t *Tree) Validate() error {
	if err := t.validateSide("source", t.Src,
		func(n *Node) (int, int) { return n.SrcStart, n.SrcEnd }); err != nil {
		return err
	}
	return t.validateSide("target", t.Trg,
		func(n *Node) (int, int) { return n.TrgStart, n.TrgEnd })
}

func (t *Tree) validateSide(side string, pts []Point, rng func(*Node) (int, int)) error {
	seen := make([]bool, len(pts))
	for i := range t.Nodes {
		n := &t.Nodes[i]
		start, end := rng(n)
		if start < 0 || end > len(pts) || start > end {
			return fmt.Errorf("fmm: node %d has bad %s range [%d,%d)", i, side, start, end)
		}
		if n.Leaf {
			if n.Level < t.MaxLevel && end-start > t.MaxLeaf {
				return fmt.Errorf("fmm: leaf %d has %d %s points > Q=%d", i, end-start, side, t.MaxLeaf)
			}
			for p := start; p < end; p++ {
				if seen[p] {
					return fmt.Errorf("fmm: %s point %d in two leaves", side, p)
				}
				seen[p] = true
			}
		}
		// Every point must lie inside its node's box.
		for p := start; p < end; p++ {
			if pts[p].Sub(n.Center).MaxAbs() > n.Half*(1+1e-9) {
				return fmt.Errorf("fmm: %s point %d outside node %d", side, p, i)
			}
		}
		// Children partition the parent's range.
		if !n.Leaf {
			covered := 0
			for _, c := range n.Children {
				if c == nilNode {
					continue
				}
				cn := &t.Nodes[c]
				if cn.Parent != i || cn.Level != n.Level+1 {
					return fmt.Errorf("fmm: child %d of node %d has bad linkage", c, i)
				}
				cs, ce := rng(cn)
				covered += ce - cs
			}
			if covered != end-start {
				return fmt.Errorf("fmm: node %d children cover %d of %d %s points", i, covered, end-start, side)
			}
		}
	}
	for p, ok := range seen {
		if !ok {
			return fmt.Errorf("fmm: %s point %d not owned by any leaf", side, p)
		}
	}
	return nil
}
