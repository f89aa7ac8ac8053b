package fmm

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBuildTreeValidates(t *testing.T) {
	for _, d := range []Distribution{Uniform, Plummer, SphereSurface} {
		pts := GeneratePoints(d, 3000, 42)
		tree, err := BuildTree(pts, 40, 20)
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		if err := tree.Validate(); err != nil {
			t.Errorf("%v: %v", d, err)
		}
		if tree.NumLeaves() < 8 {
			t.Errorf("%v: suspiciously few leaves: %d", d, tree.NumLeaves())
		}
	}
}

func TestBuildTreeErrors(t *testing.T) {
	pts := GeneratePoints(Uniform, 10, 1)
	if _, err := BuildTree(nil, 10, 20); err == nil {
		t.Error("empty points accepted")
	}
	if _, err := BuildTree(pts, 0, 20); err == nil {
		t.Error("Q=0 accepted")
	}
	if _, err := BuildTree(pts, 10, -1); err == nil {
		t.Error("negative max level accepted")
	}
}

func TestTreeSinglePoint(t *testing.T) {
	tree, err := BuildTree([]Point{{0.5, 0.5, 0.5}}, 10, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Nodes) != 1 || !tree.Nodes[0].Leaf {
		t.Error("single point should build a single leaf root")
	}
}

func TestTreeCoincidentPointsRespectMaxLevel(t *testing.T) {
	// Coincident points can never be separated; the MaxLevel bound must
	// terminate the recursion.
	pts := make([]Point, 100)
	for i := range pts {
		pts[i] = Point{0.25, 0.25, 0.25}
	}
	tree, err := BuildTree(pts, 10, 6)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Depth() > 6 {
		t.Errorf("depth %d exceeds max level 6", tree.Depth())
	}
	if err := tree.Validate(); err != nil {
		t.Error(err)
	}
}

func TestPermIsPermutation(t *testing.T) {
	pts := GeneratePoints(Plummer, 1234, 7)
	tree, err := BuildTree(pts, 25, 20)
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, len(pts))
	for i, orig := range tree.SrcPerm {
		if seen[orig] {
			t.Fatalf("Perm maps two positions to original %d", orig)
		}
		seen[orig] = true
		if tree.Src[i] != pts[orig] {
			t.Fatalf("Points[%d] != original[%d]", i, orig)
		}
	}
}

func TestOctantRoundTrip(t *testing.T) {
	// Property: a child's center is in the octant it was created for.
	f := func(seed int64) bool {
		c := Point{0.5, 0.5, 0.5}
		h := 0.5
		for o := 0; o < 8; o++ {
			cc := octantCenter(c, h, o)
			if octantOf(cc, c) != o {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1}); err != nil {
		t.Error(err)
	}
}

func TestAdjacency(t *testing.T) {
	a := &Node{Center: Point{0.5, 0.5, 0.5}, Half: 0.5}
	cases := []struct {
		b    Node
		want bool
	}{
		{Node{Center: Point{1.5, 0.5, 0.5}, Half: 0.5}, true},   // face
		{Node{Center: Point{1.5, 1.5, 1.5}, Half: 0.5}, true},   // corner
		{Node{Center: Point{2.5, 0.5, 0.5}, Half: 0.5}, false},  // gap
		{Node{Center: Point{0.5, 0.5, 0.5}, Half: 0.5}, true},   // self
		{Node{Center: Point{1.25, 0.5, 0.5}, Half: 0.25}, true}, // smaller, touching
		{Node{Center: Point{1.75, 0.5, 0.5}, Half: 0.25}, false},
	}
	for i, c := range cases {
		if got := adjacent(a, &c.b); got != c.want {
			t.Errorf("case %d: adjacent = %v, want %v", i, got, c.want)
		}
	}
}

func TestUniformTreeIsComplete(t *testing.T) {
	// A uniform distribution with N/Q a power of 8 should give a nearly
	// complete tree: all leaves at the same level.
	pts := GeneratePoints(Uniform, 8192, 3)
	tree, err := BuildTree(pts, 1024, 20)
	if err != nil {
		t.Fatal(err)
	}
	minLvl, maxLvl := 99, 0
	for _, li := range tree.Leaves() {
		l := tree.Nodes[li].Level
		if l < minLvl {
			minLvl = l
		}
		if l > maxLvl {
			maxLvl = l
		}
	}
	if maxLvl-minLvl > 1 {
		t.Errorf("uniform tree leaf levels span [%d, %d]; expected near-complete", minLvl, maxLvl)
	}
}

func TestGeneratePointsInUnitCube(t *testing.T) {
	for _, d := range []Distribution{Uniform, Plummer, SphereSurface} {
		for _, p := range GeneratePoints(d, 2000, 11) {
			if p.X < 0 || p.X >= 1 || p.Y < 0 || p.Y >= 1 || p.Z < 0 || p.Z >= 1 {
				t.Fatalf("%v: point %v outside unit cube", d, p)
			}
		}
	}
}

func TestGeneratePointsDeterministic(t *testing.T) {
	a := GeneratePoints(Plummer, 100, 5)
	b := GeneratePoints(Plummer, 100, 5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("point generation not deterministic")
		}
	}
	c := GeneratePoints(Plummer, 100, 6)
	if a[0] == c[0] {
		t.Error("different seeds produced identical first point")
	}
}

func TestSurfaceGridCount(t *testing.T) {
	for _, p := range []int{2, 3, 4, 6, 8} {
		g := SurfaceGrid(p)
		if len(g) != SurfaceCount(p) {
			t.Errorf("p=%d: grid has %d points, SurfaceCount says %d", p, len(g), SurfaceCount(p))
		}
		// All points on the boundary of [-1,1]³.
		for _, u := range g {
			if math.Abs(u.MaxAbs()-1) > 1e-12 {
				t.Fatalf("p=%d: point %v not on cube surface", p, u)
			}
		}
	}
	if SurfaceCount(4) != 56 || SurfaceCount(6) != 152 {
		t.Error("surface counts do not match 6(p-1)²+2 formula values")
	}
}

func TestPointArithmetic(t *testing.T) {
	p := Point{1, 2, 3}
	q := Point{4, 5, 6}
	if p.Add(q) != (Point{5, 7, 9}) || q.Sub(p) != (Point{3, 3, 3}) {
		t.Error("Add/Sub wrong")
	}
	if p.Scale(2) != (Point{2, 4, 6}) {
		t.Error("Scale wrong")
	}
	if (Point{-3, 2, 1}).MaxAbs() != 3 {
		t.Error("MaxAbs wrong")
	}
}
