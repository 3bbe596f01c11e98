package ra

// KeyUse reports which membership keys p's probes, anti-probes and emits
// use, each as [packed word (arity ≤ 2), byte string (arity ≥ 3)].
func KeyUse(p *Plan) (probe, anti, emit [2]bool) {
	key := func(arity int) int {
		if arity <= 2 {
			return 0
		}
		return 1
	}
	for _, st := range p.strata {
		for _, cr := range st.rules {
			emit[key(cr.head.arity)] = true
			for _, o := range cr.ops {
				switch o.kind {
				case opProbe:
					probe[key(len(o.args))] = true
				case opAnti:
					anti[key(len(o.args))] = true
				}
			}
		}
	}
	return probe, anti, emit
}
