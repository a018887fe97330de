package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"

	"bohrium"
	"bohrium/benchmark/ref"
	"bohrium/benchmark/span"
)

// cold-rewrite: every batch is structurally new, so the plan cache never
// helps and each one pays the rewrite pipeline and the VM compile. The
// generator draws from the paper's own families; the expected value of
// each batch is a closed form fixed when the batch is drawn.

// mix is a splitmix64 stream. Batch i of a seed is drawn from its own
// stream, so any batch can be regenerated without replaying the ones
// before it (the layer replay and the determinism test rely on that).
type mix uint64

func (m *mix) next() uint64 {
	*m += 0x9e3779b97f4a7c15
	z := uint64(*m)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// between returns an integer in [lo, hi].
func (m *mix) between(lo, hi int) int { return lo + int(m.next()%uint64(hi-lo+1)) }

func (m *mix) float() float64 { return float64(m.next()>>11) / (1 << 53) }

const (
	famAddMerge = iota // k adds of constants: merge into one
	famAddNoisy        // the same with an unrelated byte-code between each pair
	famPower           // x^e: expansion over an addition chain
	famSolve           // inverse then matmul: the equation (2) rewrite
	famCSE             // a repeated subexpression and a dead temporary
	famCount
)

// coldSpec is one drawn batch: which family, its shape parameters and
// constants, and the value every element of the result must have.
type coldSpec struct {
	family int
	n      int       // elements of the elementwise families
	consts []float64 // per-step constants
	base   float64
	exp    int
	m, k   int       // solve: matrix edge, right-hand-side columns
	tail   int       // solve: trailing doublings of x
	a, b   []float64 // solve: the seeded system
	want   float64   // expected value of every result element (not solve)
}

func drawCold(seed int64, i, maxN int) coldSpec {
	m := mix(uint64(seed)*0x2545f4914f6cdd1d + uint64(i))
	s := coldSpec{family: m.between(0, famCount-1), n: m.between(1, maxN)}
	constants := func(count int) float64 {
		var sum float64
		for j := 0; j < count; j++ {
			c := float64(m.between(1, 9))
			s.consts = append(s.consts, c)
			sum += c
		}
		return sum
	}
	switch s.family {
	case famAddMerge:
		s.want = constants(m.between(2, 32))
	case famAddNoisy:
		s.want = constants(m.between(2, 32)) + 1
	case famPower:
		s.base = 1 + m.float()/100
		s.exp = m.between(2, 64)
		s.want = math.Pow(s.base, float64(s.exp))
	case famSolve:
		s.m = 8 << m.between(0, 2)
		s.k = m.between(1, 16)
		s.tail = m.between(0, 7)
		s.a = make([]float64, s.m*s.m)
		for j := range s.a {
			s.a[j] = 2*m.float() - 1
		}
		for j := 0; j < s.m; j++ {
			s.a[j*s.m+j] += float64(s.m) // diagonally dominant: well conditioned
		}
		s.b = make([]float64, s.m*s.k)
		for j := range s.b {
			s.b[j] = m.float()
		}
	case famCSE:
		s.base = float64(m.between(1, 9))
		c1 := float64(m.between(1, 9))
		s.consts = []float64{c1}
		s.want = (s.base+c1)*(s.base+c1) + constants(m.between(1, 8))
	}
	return s
}

// hash folds the spec's parameters into h — the determinism test
// compares input streams by this digest.
func (s *coldSpec) hash(h []byte) []byte {
	var buf []byte
	put := func(v float64) { buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v)) }
	for _, v := range []int{s.family, s.n, s.exp, s.m, s.k, s.tail} {
		put(float64(v))
	}
	put(s.base)
	for _, set := range [][]float64{s.consts, s.a, s.b} {
		for _, v := range set {
			put(v)
		}
	}
	sum := sha256.Sum256(append(h, buf...))
	return sum[:]
}

// coldKinds is the layer replay's sample: the first n draws of the
// seed, equally weighted.
func coldKinds(n int) []kind {
	kinds := make([]kind, n)
	for i := range kinds {
		kinds[i] = kind{fmt.Sprintf("draw-%d", i), i, 1 / float64(n)}
	}
	return kinds
}

type cold struct {
	inproc
	seed    int64
	maxN    int
	garbage []*bohrium.Array // previous batch's arrays, freed by the next
}

func openCold(seed int64, sz sizes, _ *environment) (session, error) {
	return &cold{inproc: inproc{ctx: bohrium.NewContext(nil)}, seed: seed, maxN: sz.coldMaxN}, nil
}

func (c *cold) record(i int) []*bohrium.Array {
	spec := drawCold(c.seed, i, c.maxN)
	result, err := c.recordSpec(&spec)
	if err != nil {
		panic(err) // FromSlice only fails on a closed context: a bug here
	}
	return []*bohrium.Array{result}
}

// recordSpec records the batch through the public front end and returns
// the array to read back. Arrays that must outlive the read are left in
// c.garbage for the next batch to free; temporaries die inside the batch.
func (c *cold) recordSpec(s *coldSpec) (*bohrium.Array, error) {
	for _, g := range c.garbage {
		g.Free()
	}
	c.garbage = c.garbage[:0]
	keep := func(a *bohrium.Array) *bohrium.Array {
		c.garbage = append(c.garbage, a)
		return a
	}
	ctx := c.ctx
	switch s.family {
	case famAddMerge:
		a := keep(ctx.Zeros(s.n))
		for _, v := range s.consts {
			a.AddC(v)
		}
		return a, nil
	case famAddNoisy:
		a, noise := keep(ctx.Zeros(s.n)), ctx.Ones(s.n)
		for _, v := range s.consts {
			a.AddC(v)
			noise.Mul(noise)
		}
		a.Add(noise)
		noise.Free()
		return a, nil
	case famPower:
		x := ctx.Full(s.base, s.n)
		p := keep(x.Power(float64(s.exp)))
		x.Free()
		return p, nil
	case famSolve:
		a, err := c.bind(s.a, s.m, s.m)
		if err != nil {
			return nil, err
		}
		b, err := c.bind(s.b, s.m, s.k)
		if err != nil {
			return nil, err
		}
		keep(a)
		keep(b)
		inv := a.Inverse()
		x := keep(inv.MatMul(b))
		inv.Free()
		for j := 0; j < s.tail; j++ {
			x.MulC(2)
		}
		return x, nil
	default: // famCSE
		x := ctx.Full(s.base, s.n)
		y1, y2 := x.PlusC(s.consts[0]), x.PlusC(s.consts[0])
		z := keep(y1.Times(y2))
		dead := x.TimesC(3)
		for _, v := range s.consts[1:] {
			z.AddC(v)
		}
		for _, t := range []*bohrium.Array{dead, y1, y2, x} {
			t.Free()
		}
		return z, nil
	}
}

func (s *coldSpec) check(got []float64) error {
	if s.family == famSolve {
		scale := math.Ldexp(1, -s.tail)
		x := make([]float64, len(got))
		for i, v := range got {
			x[i] = v * scale
		}
		if r := ref.Residual(s.a, x, s.b, s.m, s.k); !(r <= 1e-9) {
			return fmt.Errorf("solve m=%d k=%d: relative residual %g", s.m, s.k, r)
		}
		return nil
	}
	if len(got) != s.n {
		return fmt.Errorf("family %d: %d elements, want %d", s.family, len(got), s.n)
	}
	for i, v := range got {
		if !ref.Close(v, s.want, 1e-9) {
			return fmt.Errorf("family %d n=%d: element %d = %v, closed form %v", s.family, s.n, i, v, s.want)
		}
	}
	return nil
}

func (c *cold) batch(_ context.Context, _, i int, tr *span.Recorder) error {
	spec := drawCold(c.seed, i, c.maxN)
	// Each batch binds at most two fresh inputs; the replay list must not
	// grow with the run.
	c.inputs = c.inputs[:0]
	tr.Begin("batch")
	tr.Begin("record")
	result, err := c.recordSpec(&spec)
	tr.End()
	var got []float64
	if err == nil {
		tr.Begin("read") // the read flushes
		got, err = result.Data()
		tr.End()
	}
	tr.End()
	if err != nil {
		return err
	}
	return spec.check(got)
}

func (c *cold) verify([]int) error { return nil } // every batch is checked as it completes
