package fluid

import (
	"math"
	"testing"

	"repro/internal/pieceset"
	"repro/internal/racegate"
)

// TestStepperMatchesIntegrate pins the allocation-free Stepper to the
// Integrate trajectory bit for bit: the in-place RK4 stages perform exactly
// the arithmetic of the original allocating loop, so E5's fluid
// corroboration tables cannot shift.
func TestStepperMatchesIntegrate(t *testing.T) {
	p := params(1.5, 1, 1, 2, 3)
	s, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	x0 := make([]float64, s.Dim())
	x0[0] = 2
	x0[int(pieceset.MustOf(1))] = 1
	pts, err := s.Integrate(x0, 0.02, 500, 500)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, s.Dim())
	copy(x, x0)
	st := s.NewStepper()
	for i := 0; i < 500; i++ {
		if err := st.Step(x, 0.02); err != nil {
			t.Fatal(err)
		}
	}
	want := pts[len(pts)-1].X
	for i := range x {
		if x[i] != want[i] {
			t.Fatalf("coordinate %d: Stepper %v != Integrate %v (must be bit-identical)", i, x[i], want[i])
		}
	}
}

// TestFieldIntoMatchesField: the zero-alloc field evaluation is the same
// function as the allocating one.
func TestFieldIntoMatchesField(t *testing.T) {
	s, err := New(params(2, 1, 1, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{3, 2, 0, 1, 4, 0, 2, 1}
	want, err := s.Field(x)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, s.Dim())
	if err := s.FieldInto(got, x); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("coordinate %d: FieldInto %v != Field %v", i, got[i], want[i])
		}
	}
	if err := s.FieldInto(make([]float64, 3), x); err == nil {
		t.Error("bad dst dimension accepted")
	}
}

// TestStepAllocsSteadyState gates the RK4 loop at zero heap allocations per
// step, mirroring the simulator hot-path gates: FieldInto fills scratch in
// place and axpyInto reuses the stage buffer, so long fluid stretches (the
// hybrid backend's large-N regime) never touch the allocator. Skipped under
// -race, whose instrumentation allocates on its own.
func TestStepAllocsSteadyState(t *testing.T) {
	if racegate.Enabled {
		t.Skip("allocation gate needs a non-race build")
	}
	s, err := New(params(0.5, 1, 1, 2, 4))
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, s.Dim())
	st := s.NewStepper()
	// Warm into a generic interior state so every flow is active.
	for i := 0; i < 200; i++ {
		if err := st.Step(x, 0.02); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 50; i++ {
			if err := st.Step(x, 0.02); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Step allocates %v allocs per 50 steps, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(100, func() {
		if _, err := st.StepDoubling(x, 0.02); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("StepDoubling allocates %v allocs per call, want 0", allocs)
	}
}

// TestStepDoublingErrorOrder: the step-doubling estimate behaves like a
// local truncation error — shrinking dt by 2 shrinks the estimate by about
// 2^5 (RK4's local order), and the estimate bounds the true committed
// error against a much finer reference trajectory.
func TestStepDoublingErrorOrder(t *testing.T) {
	s, err := New(params(1.5, 1, 1, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	x0 := []float64{5, 3, 2, 1}
	estAt := func(dt float64) float64 {
		x := make([]float64, len(x0))
		copy(x, x0)
		st := s.NewStepper()
		e, err := st.StepDoubling(x, dt)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	coarse, fine := estAt(0.4), estAt(0.2)
	if coarse <= 0 || fine <= 0 {
		t.Fatalf("error estimates not positive: %v, %v", coarse, fine)
	}
	ratio := coarse / fine
	if ratio < 8 || ratio > 128 {
		t.Errorf("halving dt changed the estimate by %.1fx, want ≈ 2^5", ratio)
	}

	// The estimate at dt bounds the true error of the committed two-half-step
	// state against a 64x finer reference, up to a small safety factor.
	x := make([]float64, len(x0))
	copy(x, x0)
	st := s.NewStepper()
	est, err := st.StepDoubling(x, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	ref := make([]float64, len(x0))
	copy(ref, x0)
	for i := 0; i < 64; i++ {
		if err := st.Step(ref, 0.4/64); err != nil {
			t.Fatal(err)
		}
	}
	var trueErr float64
	for i := range x {
		d := math.Abs(x[i] - ref[i])
		scale := math.Abs(ref[i])
		if scale < 1 {
			scale = 1
		}
		if r := d / scale; r > trueErr {
			trueErr = r
		}
	}
	if trueErr > 4*est+1e-15 {
		t.Errorf("true error %v exceeds 4x the step-doubling estimate %v", trueErr, est)
	}
}
