package analysis

import "go/types"

// globalrandAllowed are the math/rand package-level functions that do
// not touch the global source: they wrap a seeded source in a
// generator the simulator injects.
var globalrandAllowed = map[string]bool{
	"New":     true,
	"NewZipf": true,
}

// GlobalRand flags draws from the process-global math/rand source in
// simulator, app, and workload code. The global source is seeded from
// runtime entropy, so any use makes latency samples and workload
// arrivals unreproducible; randomness must come from an injected
// *rand.Rand built with rng.New(seed). It also flags rand.NewSource
// there: rng.New draws the identical stream without filling the
// 607-word register up front, and internal/rng, outside the sim
// scope, is the one place that reproduces math/rand's seeding.
var GlobalRand = &Analyzer{
	Name: "globalrand",
	Doc:  "simulator/app/workload randomness must come from an injected *rand.Rand seeded by rng.New, never math/rand's global source or its eager rand.NewSource",
	Run:  runGlobalRand,
}

func runGlobalRand(p *Pass) {
	if !inSimScope(p.Pkg.Path) {
		return
	}
	for ident, obj := range p.Pkg.Info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil {
			continue
		}
		pkgPath := fn.Pkg().Path()
		if pkgPath != "math/rand" && pkgPath != "math/rand/v2" {
			continue
		}
		if fn.Type().(*types.Signature).Recv() != nil {
			continue // methods on an injected *rand.Rand are the goal
		}
		if globalrandAllowed[fn.Name()] {
			continue
		}
		if fn.Name() == "NewSource" {
			p.Reportf(ident.Pos(),
				"rand.NewSource fills a 607-word register at seeding; build the generator with rng.New(seed), which draws the same stream lazily")
			continue
		}
		p.Reportf(ident.Pos(),
			"rand.%s draws from the process-global source; draw from an injected seeded *rand.Rand so runs are reproducible",
			fn.Name())
	}
}
