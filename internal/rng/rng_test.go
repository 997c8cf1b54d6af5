package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42, 7)
	b := New(42, 7)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint32(), b.Uint32(); got != want {
			t.Fatalf("step %d: generators diverged: %d vs %d", i, got, want)
		}
	}
}

func TestStreamsDiffer(t *testing.T) {
	a := New(42, 1)
	b := New(42, 2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint32() == b.Uint32() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams 1 and 2 coincide on %d of 1000 draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(1, 1)
	child := parent.Split()
	same := 0
	for i := 0; i < 1000; i++ {
		if parent.Uint32() == child.Uint32() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("parent and child coincide on %d of 1000 draws", same)
	}
}

func TestIntnRange(t *testing.T) {
	p := New(3, 3)
	if err := quick.Check(func(nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		v := p.Intn(n)
		return v >= 0 && v < n
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1, 1).Intn(0)
}

func TestIntnUniform(t *testing.T) {
	p := New(99, 5)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[p.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: count %d deviates too far from %.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	p := New(7, 7)
	sum := 0.0
	const draws = 100000
	for i := 0; i < draws; i++ {
		f := p.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		sum += f
	}
	if mean := sum / draws; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean of %d draws is %v, want ~0.5", draws, mean)
	}
}

func TestBoolEdges(t *testing.T) {
	p := New(1, 1)
	for i := 0; i < 100; i++ {
		if p.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !p.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestBoolProbability(t *testing.T) {
	p := New(11, 2)
	const draws = 100000
	hits := 0
	for i := 0; i < draws; i++ {
		if p.Bool(0.3) {
			hits++
		}
	}
	if frac := float64(hits) / draws; math.Abs(frac-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) hit fraction %v", frac)
	}
}

func TestPermIsPermutation(t *testing.T) {
	p := New(5, 5)
	for n := 0; n < 20; n++ {
		perm := p.Perm(n)
		if len(perm) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(perm))
		}
		seen := make(map[int]bool, n)
		for _, v := range perm {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, perm)
			}
			seen[v] = true
		}
	}
}

// intnDividing is Intn as it was before the threshold division became
// lazy: the model TestIntnMatchesDividingModel holds Intn to.
func intnDividing(p *PCG, n int) int {
	bound := uint32(n)
	threshold := -bound % bound
	for {
		m := uint64(p.Uint32()) * uint64(bound)
		if uint32(m) >= threshold {
			return int(m >> 32)
		}
	}
}

// TestIntnMatchesDividingModel: Intn draws the same values, consuming
// the same words of its stream, as the loop that divides on every call —
// over 1.2 million draws, including a bound (3·2^30) that rejects a
// quarter of its words.
func TestIntnMatchesDividingModel(t *testing.T) {
	bounds := []int{1, 2, 3, 7, 16, 512, 576, 1<<31 - 1, 3 << 30}
	const seeds, draws = 64, 2_100
	for _, n := range bounds {
		for seed := uint64(0); seed < seeds; seed++ {
			p, q := New(seed, uint64(n)), New(seed, uint64(n))
			for i := 0; i < draws; i++ {
				got, want := p.Intn(n), intnDividing(q, n)
				if got != want || *p != *q {
					t.Fatalf("Intn(%d) seed %d draw %d = %d, model %d (state %x, model %x)", n, seed, i, got, want, p.state, q.state)
				}
			}
		}
	}
}

func BenchmarkUint32(b *testing.B) {
	p := New(1, 1)
	for i := 0; i < b.N; i++ {
		p.Uint32()
	}
}

func BenchmarkIntn(b *testing.B) {
	p := New(1, 1)
	for i := 0; i < b.N; i++ {
		p.Intn(1000)
	}
}
