package vm

import "bohrium/internal/bytecode"

// Unnested lists the instructions of pl that are neither system nor
// extension byte-codes but sit in a cluster without a nest: what only an
// interpreter could run.
func Unnested(pl *Plan) []string {
	var out []string
	for _, cl := range pl.clusters {
		for i := cl.start; i < cl.end; i++ {
			kind := pl.prog.Instrs[i].Op.Info().Kind
			if cl.steps == nil && kind != bytecode.KindSystem && kind != bytecode.KindExtension {
				out = append(out, pl.prog.Instrs[i].String())
			}
		}
	}
	return out
}

// CachedPlans returns every plan e's plan cache holds.
func CachedPlans(e *Engine) []*Plan {
	var out []*Plan
	for _, s := range e.plans.shards {
		s.mu.Lock()
		for el := s.order.Front(); el != nil; el = el.Next() {
			if pl := el.Value.(*planEntry).plan; pl != nil {
				out = append(out, pl)
			}
		}
		s.mu.Unlock()
	}
	return out
}
