package bohrium

import (
	"math"
	"testing"

	"bohrium/internal/rewrite"
	"bohrium/internal/tensor"
)

// This file holds iterative streams — many flushes over long-lived arrays,
// structurally identical batches that hit the plan cache from the second
// iteration on — to the differential contract: every variant below must
// produce bit-for-bit the values of the first. The variants cross
// synchronous and async submission with the default and zeroed
// optimizer, so a stream's result depends on none of them. CI runs them under -race with the other differentials.

type streamVariant struct {
	name string
	cfg  Config
}

func streamVariants() []streamVariant {
	return []streamVariant{
		{"inprocess", Config{}},
		{"inprocess-async", Config{Async: true}},
		{"unoptimized", Config{Optimizer: &rewrite.Options{}}},
		{"unoptimized-async", Config{Optimizer: &rewrite.Options{}, Async: true}},
	}
}

// streamDiff runs work under every variant and holds all results to
// bitwise equality with the first.
func streamDiff(t *testing.T, work func(t *testing.T, ctx *Context) []float64) {
	t.Helper()
	var ref []float64
	for _, v := range streamVariants() {
		t.Run(v.name, func(t *testing.T) {
			cfg := v.cfg
			ctx := NewContext(&cfg)
			defer ctx.Close()
			got := work(t, ctx)
			if ref == nil {
				ref = got
				return
			}
			if len(got) != len(ref) {
				t.Fatalf("%s: %d values, want %d", v.name, len(got), len(ref))
			}
			for i := range ref {
				if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
					t.Fatalf("%s: value[%d] = %v (%x), want %v (%x)",
						v.name, i, got[i], math.Float64bits(got[i]), ref[i], math.Float64bits(ref[i]))
				}
			}
		})
	}
}

// TestStreamDifferentialPowerAccum: structurally identical batches with
// no per-iteration reads, each expanding a loop-invariant power and
// folding its sum into an accumulator.
func TestStreamDifferentialPowerAccum(t *testing.T) {
	streamDiff(t, func(t *testing.T, ctx *Context) []float64 {
		x := ctx.Full(1.0000001, 4096)
		acc := ctx.Zeros(1)
		for i := 0; i < 12; i++ {
			p := x.Power(10)
			s := p.Sum()
			acc.Add(s)
			p.Free()
			s.Free()
			if err := ctx.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		return append(acc.MustData(), x.MustData()[:8]...)
	})
}

// TestStreamDifferentialEvolvingStencil: an evolving in-place stream —
// iteration k+1 reads what iteration k wrote, so every flush boundary
// carries real dataflow.
func TestStreamDifferentialEvolvingStencil(t *testing.T) {
	streamDiff(t, func(t *testing.T, ctx *Context) []float64 {
		const n = 2048
		u := ctx.Linspace(0, 1, n)
		v := ctx.Full(0.25, n)
		for i := 0; i < 10; i++ {
			u.MulC(0.5).Add(v).MulC(0.9999)
			v.MulC(0.75).Add(u).MulC(0.5)
			if err := ctx.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		return append(u.MustData(), v.MustData()...)
	})
}

// TestStreamDifferentialArgReduceStream: argmin/argmax index reductions
// along both axes in every batch — the any-axis reduction epilogue must
// agree sync and async, and with the unoptimized program.
func TestStreamDifferentialArgReduceStream(t *testing.T) {
	streamDiff(t, func(t *testing.T, ctx *Context) []float64 {
		x := ctx.Random(7, 48, 48)
		acc := ctx.Zeros(48)
		for i := 0; i < 12; i++ {
			y := x.TimesC(1.0000001)
			lo := y.ArgminAxis(1)
			hi := y.ArgmaxAxis(0)
			flo := lo.AsType(tensor.Float64)
			fhi := hi.AsType(tensor.Float64)
			acc.Add(flo)
			acc.Add(fhi)
			x.MulC(0.999)
			y.Free()
			lo.Free()
			hi.Free()
			flo.Free()
			fhi.Free()
			if err := ctx.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		return acc.MustData()
	})
}

// TestStreamDifferentialReadEveryIteration: a stream whose every
// iteration reads a scalar, so each batch ends in a BH_SYNC and the
// reading flush is the iteration's only one.
func TestStreamDifferentialReadEveryIteration(t *testing.T) {
	streamDiff(t, func(t *testing.T, ctx *Context) []float64 {
		x := ctx.Full(1.0000001, 1024)
		var out []float64
		for i := 0; i < 6; i++ {
			p := x.Power(8)
			s, err := p.Sum().Scalar()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, s)
			p.Free()
		}
		return out
	})
}
