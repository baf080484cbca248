package stats

import (
	"sync"

	"github.com/cosmos-coherence/cosmos/internal/core"
)

// predictorPool recycles core.Predictor instances across evaluation
// cells. A predictor's block table and PHT arrays survive Reset, so a
// warm evaluation run reaches steady state with near-zero
// allocations per record regardless of how many (trace, config) cells
// it sweeps. Reset makes a pooled predictor state-identical to a fresh
// one for any configuration, so the pool is config-agnostic.
var predictorPool = sync.Pool{}

// borrowPredictor returns a predictor initialized for cfg, reusing a
// pooled instance when one is available.
func borrowPredictor(cfg core.Config) (*core.Predictor, error) {
	if v := predictorPool.Get(); v != nil {
		p := v.(*core.Predictor)
		if err := p.Reset(cfg); err != nil {
			return nil, err
		}
		return p, nil
	}
	return core.New(cfg)
}

// releasePredictor returns a predictor to the pool once its evaluation
// cell has read the memory stats it needs.
func releasePredictor(p *core.Predictor) {
	predictorPool.Put(p)
}
