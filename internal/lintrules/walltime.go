package lintrules

import (
	"go/types"
)

// walltimeBanned are the package time functions that read or wait on
// the wall clock. Pure arithmetic on time.Duration/time.Time values is
// fine — only observing the host's clock breaks seed-purity.
var walltimeBanned = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"Sleep": true, "Tick": true, "After": true, "AfterFunc": true,
	"NewTimer": true, "NewTicker": true,
}

// Walltime forbids reading the wall clock. A simulated cell's result
// must be a pure function of its seed; time.Now (and friends) smuggle
// host state into the computation, so virtual time must come from
// sim.Engine.Now. The rule is module-wide: even pool/shard timing
// code must annotate its legitimate wall-clock reads with
// //perfiso:allow walltime <reason>, keeping every clock read auditable.
var Walltime = &Analyzer{
	Name: "walltime",
	Doc: "forbids wall-clock reads (time.Now/Since/Until/Sleep/Tick/After/" +
		"AfterFunc/NewTimer/NewTicker); simulated code must use sim.Engine's " +
		"virtual clock, and real timing code must carry //perfiso:allow walltime",
	Run: runWalltime,
}

func runWalltime(pass *Pass) error {
	for id, obj := range pass.TypesInfo.Uses {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
			continue
		}
		if fn.Type().(*types.Signature).Recv() != nil || !walltimeBanned[fn.Name()] {
			continue
		}
		pass.Reportf(id.Pos(), "time.%s reads the wall clock; use the sim.Engine virtual clock, or annotate real timing code with //perfiso:allow walltime <reason>", fn.Name())
	}
	// Uses is a map: reports arrive in nondeterministic order and are
	// sorted by the driver. A reference to a banned function is a
	// finding whether or not it is called — handing time.Now to a
	// struct field is the sneakiest form.
	return nil
}
