package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// spdMatrix builds A = B Bᵀ + eps*I, guaranteed SPD.
func spdMatrix(n int, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	b := NewMatrix(n, n)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for k := 0; k < n; k++ {
				s += b.At(i, k) * b.At(j, k)
			}
			a.Set(i, j, s)
		}
		a.Set(i, i, a.At(i, i)+0.5)
	}
	return a
}

func TestCholeskySolve(t *testing.T) {
	n := 12
	a := spdMatrix(n, 1)
	c, err := NewCholesky(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.N() != n {
		t.Fatalf("N = %d", c.N())
	}
	rng := rand.New(rand.NewSource(2))
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		s := 0.0
		for j := 0; j < n; j++ {
			s += a.At(i, j) * xTrue[j]
		}
		b[i] = s
	}
	x := c.Solve(b)
	for i := range x {
		if math.Abs(x[i]-xTrue[i]) > 1e-8 {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], xTrue[i])
		}
	}
}

func TestCholeskyNotPositiveDefinite(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 1) // eigenvalues 3, -1
	if _, err := NewCholesky(a, 0); err != ErrNotPositiveDefinite {
		t.Fatalf("err = %v", err)
	}
	// A large jitter rescues it.
	if _, err := NewCholesky(a, 10); err != nil {
		t.Fatalf("jittered: %v", err)
	}
}

func TestCholeskyNonSquare(t *testing.T) {
	if _, err := NewCholesky(NewMatrix(2, 3), 0); err == nil {
		t.Fatal("non-square should error")
	}
}

func TestCholeskyLogDet(t *testing.T) {
	// Diagonal matrix: det = product of diagonal.
	a := NewMatrix(3, 3)
	a.Set(0, 0, 2)
	a.Set(1, 1, 3)
	a.Set(2, 2, 4)
	c, err := NewCholesky(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := c.LogDet(), math.Log(24); math.Abs(got-want) > 1e-12 {
		t.Fatalf("LogDet = %v, want %v", got, want)
	}
}

func TestCholeskySolvePanicsOnDim(t *testing.T) {
	c, err := NewCholesky(spdMatrix(3, 3), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Solve([]float64{1})
}
