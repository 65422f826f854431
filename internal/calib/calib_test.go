package calib

import (
	"math"
	"testing"

	"repro/internal/snapshot"
)

// TestAffineRecoversMapping proves the least-squares fit recovers a
// known affine relation between predictions and observations.
func TestAffineRecoversMapping(t *testing.T) {
	a := NewAffine(64)
	for x := 1.0; x <= 32; x++ {
		a.Observe(x, 2.5*x+7)
	}
	a.Retune()
	alpha, beta := a.Coeffs()
	if math.Abs(alpha-2.5) > 1e-9 || math.Abs(beta-7) > 1e-9 {
		t.Errorf("fit (%.3f, %.3f), want (2.5, 7)", alpha, beta)
	}
	if got := a.Apply(10); math.Abs(got-32) > 1e-9 {
		t.Errorf("Apply(10) = %.3f, want 32", got)
	}
}

// TestAffineOffsetFallback: a constant predictor has no slope
// information; the fit must degrade to a pure offset, not blow up.
func TestAffineOffsetFallback(t *testing.T) {
	a := NewAffine(64)
	for i := 0; i < 16; i++ {
		a.Observe(100, 140)
	}
	a.Retune()
	alpha, beta := a.Coeffs()
	if alpha != 1 || math.Abs(beta-40) > 1e-9 {
		t.Errorf("degenerate fit (%.3f, %.3f), want offset-only (1, 40)", alpha, beta)
	}
}

// TestAffineWindowSlides: the window drops the oldest pairs, so the
// fit tracks the most recent observations.
func TestAffineWindowSlides(t *testing.T) {
	a := NewAffine(8)
	for x := 1.0; x <= 8; x++ {
		a.Observe(x, x) // identity regime, about to scroll out
	}
	for x := 1.0; x <= 8; x++ {
		a.Observe(x, 3*x) // current regime
	}
	if a.ObservationCount() != 8 {
		t.Fatalf("window holds %d pairs, want 8", a.ObservationCount())
	}
	a.Retune()
	if alpha, _ := a.Coeffs(); math.Abs(alpha-3) > 1e-9 {
		t.Errorf("fit alpha %.3f, want 3 (old regime must have scrolled out)", alpha)
	}
}

// TestAffineCompactingWindowMatchesCopy drives the sliding window well
// past twice its size (so the backing array compacts several times)
// and checks it against a naive reference that re-copies the window on
// every observation: the fitted coefficients and the encoded bytes
// must be equal at every check, and so must a fork restored mid-run.
func TestAffineCompactingWindowMatchesCopy(t *testing.T) {
	for _, w := range []int{8, 13, 4096} {
		a := NewAffine(w)
		var pred, obs []float64 // the reference window
		every := 1
		if w > 64 {
			every = 97
		}
		var fork *Affine
		var forkBytes []byte
		for k := 0; k < 5*w+3; k++ {
			x := float64(k%17) + 1/float64(k+3)
			y := 1.7*x + math.Sin(float64(k))
			a.Observe(x, y)
			pred = append(pred, x)
			obs = append(obs, y)
			if len(pred) > w {
				pred = append([]float64(nil), pred[1:]...)
				obs = append([]float64(nil), obs[1:]...)
			}
			if k == 2*w+1 {
				fork = a.Fork()
				forkBytes = affineBytes(a)
			}
			if k%every != 0 && k != 5*w+2 {
				continue
			}
			ref := &Affine{alpha: 1, pred: pred, obs: obs, maxWindow: w}
			a.Retune()
			ref.Retune()
			ga, gb := a.Coeffs()
			ra, rb := ref.Coeffs()
			if ga != ra || gb != rb {
				t.Fatalf("w=%d after %d observations: coeffs (%v, %v), reference (%v, %v)", w, k+1, ga, gb, ra, rb)
			}
			if got, want := affineBytes(a), affineBytes(ref); string(got) != string(want) {
				t.Fatalf("w=%d after %d observations: encoded window differs from the reference", w, k+1)
			}
		}
		// The fork was taken mid-run and must not share storage with
		// the fit that kept observing; restoring it into a fit that
		// holds a different window must bring back exactly the forked
		// one.
		if string(affineBytes(fork)) != string(forkBytes) {
			t.Fatalf("w=%d: the fork changed after its parent kept observing", w)
		}
		restored := NewAffine(w)
		restored.RestoreFork(a)
		restored.RestoreFork(fork)
		if string(affineBytes(restored)) != string(forkBytes) {
			t.Fatalf("w=%d: RestoreFork does not reproduce the forked window", w)
		}
	}
}

func affineBytes(a *Affine) []byte {
	e := snapshot.NewEncoder(1)
	a.SnapshotTo(e)
	return e.Finish()
}

// TestReciprocalFeed exercises the predict/observe/retune cycle of a
// pairing over integer request ids.
func TestReciprocalFeed(t *testing.T) {
	r := NewReciprocal[uint64](NewAffine(32), 100)
	r.Predict(1, 10)
	r.Predict(2, 20)
	if r.Outstanding() != 2 {
		t.Fatalf("outstanding %d, want 2", r.Outstanding())
	}
	if !r.Observe(1, 25) {
		t.Error("Observe(1) found no prediction")
	}
	if r.Observe(99, 5) {
		t.Error("Observe(99) matched a prediction that was never made")
	}
	if r.Outstanding() != 1 {
		t.Errorf("outstanding %d after one completion, want 1", r.Outstanding())
	}
	if r.MaybeRetune(50) {
		t.Error("retuned before a full period elapsed")
	}
	if !r.MaybeRetune(100) {
		t.Error("did not retune at the period boundary")
	}
	if r.Fit().ObservationCount() != 1 {
		t.Errorf("fit holds %d observations, want 1", r.Fit().ObservationCount())
	}
}

// TestCalibSnapshotRoundTrip: an Affine and a Reciprocal restored from
// their own snapshots must re-encode to identical bytes.
func TestCalibSnapshotRoundTrip(t *testing.T) {
	a := NewAffine(16)
	for x := 1.0; x <= 10; x++ {
		a.Observe(x, 1.5*x+3)
	}
	a.Retune()
	r := NewReciprocal[uint64](a, 64)
	r.Predict(7, 12.5)
	r.Predict(3, 8.25)
	r.MaybeRetune(128)

	encode := func(a *Affine, r *Reciprocal[uint64]) []byte {
		e := snapshot.NewEncoder(1)
		a.SnapshotTo(e)
		r.SnapshotTo(e,
			func(x, y uint64) bool { return x < y },
			func(e *snapshot.Encoder, req uint64) { e.U64(req) })
		return e.Finish()
	}
	blob := encode(a, r)

	a2 := NewAffine(16)
	r2 := NewReciprocal[uint64](a2, 64)
	d, err := snapshot.NewDecoder(blob, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := a2.RestoreFrom(d); err != nil {
		t.Fatal(err)
	}
	if err := r2.RestoreFrom(d, func(d *snapshot.Decoder) (uint64, error) {
		return d.U64(), d.Err()
	}); err != nil {
		t.Fatal(err)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	if got := encode(a2, r2); string(got) != string(blob) {
		t.Error("restored state re-encodes to different bytes")
	}
}
