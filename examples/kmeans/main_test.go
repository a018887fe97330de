package main

import (
	"math"
	"testing"

	"bohrium"
)

// TestKMeansRecoversCenters runs the clustering at a reduced size on
// every execution configuration and checks two contracts: the recovered
// centroids land near the true blob centers, and async pipelining produces
// bit-identical centroids to the synchronous run.
func TestKMeansRecoversCenters(t *testing.T) {
	const (
		points = 3 * 64
		sweeps = 6
	)
	run := func(t *testing.T, cfg *bohrium.Config) (cx, cy []float64) {
		ctx := bohrium.NewContext(cfg)
		defer ctx.Close()
		px, py := makePoints(ctx, points)
		cx = []float64{-0.1, 0, 0.1}
		cy = []float64{0.1, 0, -0.1}
		for it := 0; it < sweeps; it++ {
			labels, inertia, err := assignPoints(ctx, px, py, cx, cy)
			if err != nil {
				t.Fatal(err)
			}
			if inertia <= 0 {
				t.Fatalf("iter %d: inertia = %v, want > 0", it, inertia)
			}
			if err := updateCentroids(px, py, labels, cx, cy); err != nil {
				t.Fatal(err)
			}
		}
		return cx, cy
	}

	wantX, wantY := run(t, nil)
	for j := 0; j < k; j++ {
		// The jitter is ±0.4 uniform, so the blob means sit well within
		// 0.15 of the true centers at this sample size.
		if math.Abs(wantX[j]-trueX[j]) > 0.15 || math.Abs(wantY[j]-trueY[j]) > 0.15 {
			t.Errorf("centroid %d = (%v, %v), want near (%v, %v)",
				j, wantX[j], wantY[j], trueX[j], trueY[j])
		}
	}

	for _, v := range []struct {
		name string
		cfg  *bohrium.Config
	}{
		{"async", &bohrium.Config{Async: true}},
	} {
		t.Run(v.name, func(t *testing.T) {
			gotX, gotY := run(t, v.cfg)
			for j := 0; j < k; j++ {
				if math.Float64bits(gotX[j]) != math.Float64bits(wantX[j]) ||
					math.Float64bits(gotY[j]) != math.Float64bits(wantY[j]) {
					t.Errorf("centroid %d = (%v, %v), sync got (%v, %v) — configurations diverged",
						j, gotX[j], gotY[j], wantX[j], wantY[j])
				}
			}
		})
	}
}
