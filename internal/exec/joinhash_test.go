package exec

import (
	"math"
	"math/rand"
	"testing"
)

func TestF64SetMapSemantics(t *testing.T) {
	s := newF64Set(4)
	s.add(1.5)
	s.add(math.Copysign(0, -1)) // -0 must alias +0
	s.add(math.NaN())           // NaN keys are unreachable

	if !s.contains(1.5) || s.contains(2.5) {
		t.Error("basic membership broken")
	}
	if !s.contains(0) || !s.contains(math.Copysign(0, -1)) {
		t.Error("-0 and +0 must be the same key, as in a Go map")
	}
	if s.contains(math.NaN()) {
		t.Error("NaN must never match (NaN != NaN)")
	}
}

func TestF64SetAgainstGoMap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	keys := make([]float64, 500)
	for i := range keys {
		keys[i] = math.Floor(rng.Float64() * 100) // heavy duplication
	}
	s := newF64Set(len(keys))
	m := make(map[float64]struct{})
	for _, k := range keys {
		s.add(k)
		m[k] = struct{}{}
	}
	for probe := -10.0; probe <= 110; probe += 0.5 {
		_, want := m[probe]
		if got := s.contains(probe); got != want {
			t.Fatalf("contains(%v) = %v, map says %v", probe, got, want)
		}
	}
}

func TestF64GroupsMatchesMapBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	vec := make([]float64, 800)
	for i := range vec {
		switch r := rng.Intn(20); {
		case r == 0:
			vec[i] = math.NaN()
		case r == 1:
			vec[i] = math.Copysign(0, -1)
		default:
			vec[i] = math.Floor(rng.Float64() * 40)
		}
	}
	rows := make([]int32, len(vec))
	for i := range rows {
		rows[i] = int32(i)
	}
	const coef = 2.5

	g := buildF64Groups(rows, vec, coef)

	// Oracle: a Go map build. NaN-keyed entries exist in the map
	// but are unreachable by lookup; f64Groups drops them at build.
	ht := make(map[float64][]int32, len(rows))
	for _, r := range rows {
		ht[coef*vec[r]] = append(ht[coef*vec[r]], r)
	}
	probes := []float64{math.NaN(), math.Inf(1), 0, math.Copysign(0, -1)}
	for k := 0.0; k <= 100; k += 0.5 {
		probes = append(probes, k)
	}
	for _, k := range probes {
		want := ht[k] // map lookup with NaN misses — same as g.lookup
		got := g.lookup(k)
		if len(got) != len(want) {
			t.Fatalf("lookup(%v): %d rows, map has %d", k, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("lookup(%v)[%d] = %d, map order has %d (per-key input order must be preserved)",
					k, i, got[i], want[i])
			}
		}
	}
}

func TestF64SetDenseAgainstGoMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := newF64Set(300)
	m := make(map[float64]struct{})
	for i := 0; i < 300; i++ {
		k := math.Floor(rng.Float64() * 2500) // integral: dense-eligible
		s.add(k)
		m[k] = struct{}{}
	}
	s.add(math.Copysign(0, -1))
	m[math.Copysign(0, -1)] = struct{}{}
	s.add(math.NaN())
	s.freeze()
	if s.dense == nil {
		t.Fatal("integral small-span keys must take the dense bitmap path")
	}
	probes := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, 0.5, 1e9, math.Copysign(0, -1)}
	for k := -20.0; k <= 2520; k += 1 {
		probes = append(probes, k)
	}
	for _, k := range probes {
		_, want := m[k]
		if got := s.contains(k); got != want {
			t.Fatalf("dense contains(%v) = %v, map says %v", k, got, want)
		}
	}
}

func TestF64SetDenseIneligible(t *testing.T) {
	frac := newF64Set(4)
	frac.add(1.5)
	frac.freeze()
	if frac.dense != nil {
		t.Error("fractional keys must not take the dense path")
	}
	sparse := newF64Set(4)
	sparse.add(0)
	sparse.add(1e9)
	sparse.freeze()
	if sparse.dense != nil {
		t.Error("a huge key span must not take the dense path")
	}
	inf := newF64Set(4)
	inf.add(math.Inf(1))
	inf.freeze()
	if inf.dense != nil {
		t.Error("infinite keys must not take the dense path")
	}
}

func TestF64GroupsDenseMatchesMapBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	vec := make([]float64, 600)
	for i := range vec {
		switch r := rng.Intn(25); {
		case r == 0:
			vec[i] = math.NaN()
		case r == 1:
			vec[i] = math.Copysign(0, -1)
		default:
			vec[i] = math.Floor(rng.Float64() * 900) // integral keys
		}
	}
	rows := make([]int32, len(vec))
	for i := range rows {
		rows[i] = int32(i)
	}

	g := buildF64Groups(rows, vec, 1)
	if !g.dense {
		t.Fatal("integral small-span keys must take the dense group build")
	}
	ht := make(map[float64][]int32, len(rows))
	for _, r := range rows {
		ht[vec[r]] = append(ht[vec[r]], r)
	}
	probes := []float64{math.NaN(), math.Inf(1), -3, 0.25, 1e9, 0, math.Copysign(0, -1)}
	for k := 0.0; k <= 910; k++ {
		probes = append(probes, k)
	}
	for _, k := range probes {
		want := ht[k]
		got := g.lookup(k)
		if len(got) != len(want) {
			t.Fatalf("dense lookup(%v): %d rows, map has %d", k, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("dense lookup(%v)[%d] = %d, map order has %d", k, i, got[i], want[i])
			}
		}
	}
}

func TestHashF64NormalizesZero(t *testing.T) {
	if hashF64(normKey(0)) != hashF64(normKey(math.Copysign(0, -1))) {
		t.Error("+0 and -0 must hash identically after normKey")
	}
}
