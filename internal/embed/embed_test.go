package embed

import (
	"testing"

	"ipg/internal/nucleus"
	"ipg/internal/superipg"
)

func TestGrayCodeRing(t *testing.T) {
	for d := 2; d <= 8; d++ {
		e := Ring(d)
		if err := e.Validate(1 << d); err != nil {
			t.Fatal(err)
		}
		if dil := e.Dilation(HypercubeDistance); dil != 1 {
			t.Errorf("ring in Q%d: dilation %d, want 1", d, dil)
		}
	}
}

func TestMeshEmbedding(t *testing.T) {
	for _, wrap := range []bool{false, true} {
		e := Mesh(3, 4, wrap)
		if err := e.Validate(1 << 7); err != nil {
			t.Fatal(err)
		}
		if dil := e.Dilation(HypercubeDistance); dil != 1 {
			t.Errorf("%s: dilation %d, want 1", e.GuestName, dil)
		}
	}
}

func TestTreeEmbedding(t *testing.T) {
	for d := 2; d <= 8; d++ {
		e := CompleteBinaryTree(d)
		if err := e.Validate(1 << d); err != nil {
			t.Fatal(err)
		}
		if e.Guest.N() != 1<<d-1 || e.Guest.M() != 1<<d-2 {
			t.Fatalf("tree(%d): n=%d m=%d", d, e.Guest.N(), e.Guest.M())
		}
		dil := e.Dilation(HypercubeDistance)
		if dil > 2 {
			t.Errorf("tree in Q%d: dilation %d, want <= 2", d, dil)
		}
	}
}

// TestTreeEmbeddingSmall covers the smallest trees, the empty one (d = 0)
// included.
func TestTreeEmbeddingSmall(t *testing.T) {
	for _, c := range []struct{ d, n int }{{0, 0}, {1, 1}, {2, 3}, {3, 7}, {4, 15}} {
		e := CompleteBinaryTree(c.d)
		if e.Guest.N() != c.n || len(e.Map) != c.n {
			t.Fatalf("tree(d=%d): %d nodes, %d mapped; want %d", c.d, e.Guest.N(), len(e.Map), c.n)
		}
		if err := e.Validate(1 << c.d); err != nil {
			t.Fatalf("tree(d=%d): %v", c.d, err)
		}
		if dil := e.Dilation(HypercubeDistance); dil > 2 {
			t.Errorf("tree(d=%d) in Q%d: dilation %d, want <= 2", c.d, c.d, dil)
		}
	}
}

func TestCorollary34Composition(t *testing.T) {
	// Ring, mesh, and tree embedded into super-IPGs through the
	// ln-dimensional hypercube: dilation at most 3x the cube dilation.
	hosts := []*superipg.Network{
		superipg.HSN(3, nucleus.Hypercube(2)),
		superipg.CompleteCN(3, nucleus.Hypercube(2)),
		superipg.SFN(3, nucleus.Hypercube(2)),
		superipg.HCN(3),
		superipg.HFN(3),
	}
	for _, w := range hosts {
		g, err := w.Build()
		if err != nil {
			t.Fatal(err)
		}
		u := g.Undirected()
		logN := 0
		for 1<<logN < g.N() {
			logN++
		}
		guests := []*Embedding{
			Ring(logN),
			Mesh(logN/2, logN-logN/2, true),
			CompleteBinaryTree(logN),
		}
		for _, e := range guests {
			cubeDil := e.Dilation(HypercubeDistance)
			comp, err := IntoSuperIPG(e, w, g)
			if err != nil {
				t.Fatal(err)
			}
			dil, err := MeasureDilation(comp, u)
			if err != nil {
				t.Fatal(err)
			}
			if dil > 3*cubeDil {
				t.Errorf("%s: dilation %d > 3x cube dilation %d", comp.GuestName, dil, cubeDil)
			}
			if dil < 1 {
				t.Errorf("%s: degenerate dilation %d", comp.GuestName, dil)
			}
		}
	}
}

func TestValidateCatchesBadMaps(t *testing.T) {
	e := Ring(3)
	e.Map[0] = e.Map[1]
	if err := e.Validate(8); err == nil {
		t.Error("duplicate image should fail validation")
	}
	e2 := Ring(3)
	e2.Map[0] = 99
	if err := e2.Validate(8); err == nil {
		t.Error("out-of-range image should fail validation")
	}
}
