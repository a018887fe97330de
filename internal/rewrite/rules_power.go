package rewrite

import (
	"fmt"
	"slices"

	"bohrium/internal/bytecode"
	"bohrium/internal/chains"
	"bohrium/internal/tensor"
)

// PowerExpandRule implements the paper's equation (1): BH_POWER with an
// integral exponent becomes a chain of BH_MULTIPLYs (Listings 4/5). The
// chain strategy is configurable — the paper's square-then-increment
// Listing 5, the naive Listing 4, or the stronger binary/factor/optimal
// chains — and a cost-model guard keeps expansion profitable (design
// decision D2).
type PowerExpandRule struct {
	// Strategy picks the chain generator; zero means binary.
	Strategy chains.Strategy
	// MaxExponent bounds expansion; larger exponents keep BH_POWER.
	// Zero means DefaultMaxExponent.
	MaxExponent int64
	// DisableCostModel expands unconditionally (ablation E6/D2); by
	// default a chain is only emitted when its estimated sweeps cost
	// less than one BH_POWER sweep.
	DisableCostModel bool
	// AllowTemporaries permits chains that need scratch registers
	// (factor/optimal strategies); the paper's constraint §3.1 forbids
	// them by default because "copying data to create temporary tensors
	// would be time consuming".
	AllowTemporaries bool
}

// DefaultMaxExponent bounds power expansion: beyond this the chain code
// size outgrows any sweep savings.
const DefaultMaxExponent = 1024

// Name implements Rule.
func (r PowerExpandRule) Name() string { return "power-expand" }

// Apply implements Rule.
func (r PowerExpandRule) Apply(p *bytecode.Program) (int, error) {
	strategy := r.Strategy
	if strategy == 0 {
		strategy = chains.StrategyBinary
	}
	maxExp := r.MaxExponent
	if maxExp == 0 {
		maxExp = DefaultMaxExponent
	}

	total := 0
	for i := 0; i < len(p.Instrs); i++ {
		in := &p.Instrs[i]
		if in.Op != bytecode.OpPower || !in.Out.IsReg() || !in.In1.IsReg() || !in.In2.IsConst() {
			continue
		}
		c := in.In2.Const
		if !c.IsIntegral() || c.Int() < 2 || c.Int() > maxExp {
			continue
		}
		n := int(c.Int())

		chain, err := chains.Generate(strategy, n)
		if err != nil {
			return total, fmt.Errorf("power-expand: %w", err)
		}
		if !r.AllowTemporaries && !chain.TwoTensorSafe() {
			// Fall back to the best chain that honors the two-tensor
			// constraint.
			if chain, err = chains.Binary(n); err != nil {
				return total, fmt.Errorf("power-expand: %w", err)
			}
		}
		if !r.DisableCostModel {
			mulCost := bytecode.OpMultiply.Info().Cost
			powCost := bytecode.OpPower.Info().Cost
			if float64(chain.MultiplyCount())*mulCost >= powCost {
				continue
			}
		}

		seq, ok := r.emit(p, in, chain)
		if !ok {
			continue
		}
		p.Instrs = slices.Replace(p.Instrs, i, i+1, seq...)
		i += len(seq) - 1
		total++
	}
	return total, nil
}

// emit lowers one POWER byte-code into its multiply chain. For two-tensor
// safe chains every step writes the result register; general chains
// allocate scratch registers per intermediate exponent and free them
// afterwards.
func (r PowerExpandRule) emit(p *bytecode.Program, in *bytecode.Instruction, chain chains.Chain) ([]bytecode.Instruction, bool) {
	src := in.In1 // origin tensor x (paper: a0)
	dst := in.Out // result tensor (paper: a1)
	sameReg := src.Reg == dst.Reg

	// In-place emission: every step writes the result register, reading
	// either it or the origin. If the result IS the origin, increment
	// steps (· x) would read an already-updated x, so only pure-doubling
	// chains qualify in that case.
	if chain.TwoTensorSafe() && (!sameReg || pureDoubling(chain)) {
		seq := make([]bytecode.Instruction, 0, len(chain))
		for _, s := range chain {
			in1, in2 := bytecode.Operand(dst), bytecode.Operand(dst)
			if s.I == 0 {
				in1 = src
			}
			if s.J == 0 {
				in2 = src
			}
			seq = append(seq, bytecode.Instruction{Op: bytecode.OpMultiply, Out: dst, In1: in1, In2: in2})
		}
		return seq, true
	}
	if !r.AllowTemporaries {
		return nil, false
	}

	// General chain: one scratch register per intermediate exponent, all
	// freed after the final multiply lands in the result register.
	ri, _ := p.Reg(dst.Reg)
	tempView := tensor.NewView(dst.View.Shape)
	loc := make([]bytecode.Operand, len(chain)+1)
	loc[0] = src
	var temps []bytecode.RegID
	for k := range chain {
		if k == len(chain)-1 {
			loc[k+1] = dst
			continue
		}
		t := p.NewReg(ri.DType, tempView.Size())
		temps = append(temps, t)
		loc[k+1] = bytecode.Reg(t, tempView)
	}
	seq := make([]bytecode.Instruction, 0, len(chain)+len(temps))
	for k, s := range chain {
		seq = append(seq, bytecode.Instruction{
			Op: bytecode.OpMultiply, Out: loc[k+1], In1: loc[s.I], In2: loc[s.J],
		})
	}
	for _, t := range temps {
		seq = append(seq, bytecode.Instruction{Op: bytecode.OpFree, Out: bytecode.Reg(t, tempView)})
	}
	return seq, true
}

// pureDoubling reports whether every chain step squares the running result
// (n is a power of two) — the only chains safe when origin == result.
func pureDoubling(c chains.Chain) bool {
	for k, s := range c {
		if !(s.I == k && s.J == k) {
			return false
		}
	}
	return true
}
