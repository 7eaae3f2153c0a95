package main

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dist"
	"repro/internal/lrd"
)

func TestSimulateBasics(t *testing.T) {
	// Constant arrivals below the service rate: the queue stays empty.
	arr := make([]float64, 100)
	for i := range arr {
		arr[i] = 1
	}
	res, err := Simulate(arr, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxOccupied != 0 || res.LossFraction != 0 {
		t.Errorf("underloaded queue: max %g, loss %g", res.MaxOccupied, res.LossFraction)
	}
	// Overloaded queue grows linearly: buffer <= 0 means infinite.
	res, err = Simulate(arr, 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.MaxOccupied-50) > 1e-9 {
		t.Errorf("overloaded backlog = %g, want 50", res.MaxOccupied)
	}
}

func TestSimulateErrors(t *testing.T) {
	if _, err := Simulate(nil, 1, 0); err == nil {
		t.Error("expected error for empty arrivals")
	}
	if _, err := Simulate([]float64{1}, 0, 0); err == nil {
		t.Error("expected error for zero service rate")
	}
	if _, err := Simulate([]float64{-1}, 1, 0); err == nil {
		t.Error("expected error for negative arrival")
	}
}

func TestSimulateFiniteBufferLoss(t *testing.T) {
	// A burst of 10 into a buffer of 3 drained at 1/tick: losses occur.
	arr := []float64{10, 0, 0, 0}
	res, err := Simulate(arr, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.LossFraction <= 0.5 {
		t.Errorf("loss fraction = %g, want > 0.5 (7/10 lost)", res.LossFraction)
	}
	if res.MaxOccupied > 3 {
		t.Errorf("occupancy %g exceeded the buffer", res.MaxOccupied)
	}
}

func TestSimulateWorkConservation(t *testing.T) {
	// Infinite buffer: served + backlog == offered (work conservation).
	prop := func(seed uint64) bool {
		rng := dist.NewRand(seed)
		arr := make([]float64, 200)
		var offered float64
		for i := range arr {
			arr[i] = rng.Float64() * 3
			offered += arr[i]
		}
		const c = 1.5
		res, err := Simulate(arr, c, 0)
		if err != nil {
			return false
		}
		// Served work = offered - final backlog; served <= c per tick.
		final := res.Occupancy[len(res.Occupancy)-1]
		served := offered - final
		return served <= c*float64(len(arr))+1e-9 && final >= 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestOverflowProb(t *testing.T) {
	occ := []float64{0, 1, 2, 3, 4}
	got, err := OverflowProb(occ, []float64{0.5, 2.5, 10})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.8, 0.4, 0}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("level %d: %g, want %g", i, got[i], want[i])
		}
	}
	if _, err := OverflowProb(nil, []float64{1}); err == nil {
		t.Error("expected error for empty occupancy")
	}
}

func TestNorrosValidation(t *testing.T) {
	bad := []NorrosModel{
		{Mean: 0, Variance: 1, H: 0.8},
		{Mean: 1, Variance: 0, H: 0.8},
		{Mean: 1, Variance: 1, H: 0.5},
		{Mean: 1, Variance: 1, H: 1},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestNorrosBoundShape(t *testing.T) {
	m := NorrosModel{Mean: 1, Variance: 1, H: 0.8}
	// Decreasing in buffer, decreasing in service rate.
	p1, err := m.OverflowBound(1.5, 10)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := m.OverflowBound(1.5, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !(p2 < p1) {
		t.Errorf("bound should fall with buffer: %g vs %g", p1, p2)
	}
	p3, err := m.OverflowBound(2.5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !(p3 < p1) {
		t.Errorf("bound should fall with service rate: %g vs %g", p1, p3)
	}
	// Unstable and degenerate cases return 1.
	if p, _ := m.OverflowBound(0.9, 10); p != 1 {
		t.Errorf("unstable queue bound = %g, want 1", p)
	}
	if p, _ := m.OverflowBound(1.5, 0); p != 1 {
		t.Errorf("b = 0 bound = %g, want 1", p)
	}
	// Higher H decays slower at large buffers (the paper's point).
	hi := NorrosModel{Mean: 1, Variance: 1, H: 0.9}
	lo := NorrosModel{Mean: 1, Variance: 1, H: 0.55}
	pHi, _ := hi.OverflowBound(1.5, 1000)
	pLo, _ := lo.OverflowBound(1.5, 1000)
	if !(pHi > pLo) {
		t.Errorf("H=0.9 bound %g should exceed H=0.55 bound %g at large buffers", pHi, pLo)
	}
}

func TestBufferForInvertsBound(t *testing.T) {
	m := NorrosModel{Mean: 2, Variance: 3, H: 0.75}
	const c, target = 3.0, 1e-4
	b, err := m.BufferFor(c, target)
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.OverflowBound(c, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-target)/target > 1e-6 {
		t.Errorf("round trip: bound(bufferFor) = %g, want %g", p, target)
	}
	if _, err := m.BufferFor(1, target); err == nil {
		t.Error("expected error for service <= mean")
	}
	if _, err := m.BufferFor(c, 0); err == nil {
		t.Error("expected error for target = 0")
	}
	if _, err := m.BufferFor(c, 1.5); err == nil {
		t.Error("expected error for target >= 1")
	}
}

func TestHigherHurstNeedsBiggerBuffers(t *testing.T) {
	// The reason the paper cares about H preservation: dimensioning.
	for _, target := range []float64{1e-3, 1e-6} {
		lo := NorrosModel{Mean: 1, Variance: 1, H: 0.6}
		hi := NorrosModel{Mean: 1, Variance: 1, H: 0.9}
		bLo, err := lo.BufferFor(1.5, target)
		if err != nil {
			t.Fatal(err)
		}
		bHi, err := hi.BufferFor(1.5, target)
		if err != nil {
			t.Fatal(err)
		}
		if !(bHi > 2*bLo) {
			t.Errorf("target %g: H=0.9 buffer %g should far exceed H=0.6 buffer %g", target, bHi, bLo)
		}
	}
}

func TestNorrosAgainstSimulationOnFGN(t *testing.T) {
	// The bound should upper-bound (roughly track) the simulated overflow
	// on genuine fGn traffic within an order of magnitude at moderate
	// buffers.
	const h = 0.75
	gen, err := lrd.NewFGN(h, 1<<17, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	arr := gen.Generate(dist.NewRand(31))
	for i, v := range arr {
		if v < 0 {
			arr[i] = 0
		}
	}
	model, err := FitModel(arr, h)
	if err != nil {
		t.Fatal(err)
	}
	const c = 11.0 // 10% headroom over the mean
	res, err := Simulate(arr, c, 0)
	if err != nil {
		t.Fatal(err)
	}
	levels := []float64{5, 10, 20}
	emp, err := OverflowProb(res.Occupancy, levels)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range levels {
		bound, err := model.OverflowBound(c, b)
		if err != nil {
			t.Fatal(err)
		}
		if emp[i] == 0 {
			continue
		}
		ratio := bound / emp[i]
		if ratio < 0.05 || ratio > 100 {
			t.Errorf("buffer %g: bound %g vs simulated %g (ratio %g)", b, bound, emp[i], ratio)
		}
	}
}

func TestFitModelErrors(t *testing.T) {
	if _, err := FitModel([]float64{1}, 0.8); err == nil {
		t.Error("expected error for short series")
	}
	if _, err := FitModel([]float64{1, 1}, 0.8); err == nil {
		t.Error("expected error for zero-variance series")
	}
	if _, err := FitModel([]float64{1, 2, 3}, 0.4); err == nil {
		t.Error("expected error for H outside (1/2,1)")
	}
}

func BenchmarkSimulate1M(b *testing.B) {
	rng := dist.NewRand(1)
	arr := make([]float64, 1<<20)
	for i := range arr {
		arr[i] = rng.Float64() * 2
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(arr, 1.1, 100); err != nil {
			b.Fatal(err)
		}
	}
}
