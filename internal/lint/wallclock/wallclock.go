// Package wallclock implements the `wallclock` analyzer: inside the
// deterministic zone — the scheduling core and every engine that must
// replay bit-for-bit (schedcore, simulator, sweep, experiments) — time
// may only flow through the driver-injected schedcore.Clock and
// randomness only through seeds derived with
// stats.DeriveSeed/ReplicaSeeds. Calls to time.Now/Since/Until and to
// math/rand's implicitly-seeded global functions are flagged.
//
// The one sanctioned exception, decision-latency instrumentation that
// never feeds a scheduling decision, carries //lint:ignore wallclock
// directives with its justification. Drivers own real time: toposerve
// sets a ManualClock from its own time source before each round.
package wallclock

import (
	"go/ast"
	"go/types"
	"strings"

	"gputopo/internal/lint/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "wallclock",
	Doc:  "forbids time.Now/Since/Until and global math/rand in the deterministic scheduling zone",
	Run:  run,
}

// Restricted lists the import-path prefixes of the deterministic zone.
// A package is in scope when its path equals a prefix or sits beneath
// it. Tests may override this to point at fixtures.
var Restricted = []string{
	"gputopo/internal/schedcore",
	"gputopo/internal/simulator",
	"gputopo/internal/sweep",
	"gputopo/internal/experiments",
}

const clockFix = "take time from the driver's schedcore.Clock (a ManualClock the simulator or toposerve sets)"
const seedFix = "use a stats.RNG seeded via stats.DeriveSeed/ReplicaSeeds so every run replays bit-for-bit"

func run(pass *analysis.Pass) error {
	if !restricted(pass.Pkg.Path()) {
		return nil
	}
	pass.Inspect(func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := pass.CalleeFunc(call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			return true // methods (rand.Rand.Intn, time.Time.Sub, …) are fine
		}
		switch fn.Pkg().Path() {
		case "time":
			switch fn.Name() {
			case "Now", "Since", "Until":
				pass.ReportfFix(call.Pos(), clockFix,
					"time.%s in %s breaks virtual-clock replay; the deterministic zone must not read the wall clock",
					fn.Name(), pkgBase(pass.Pkg.Path()))
			}
		case "math/rand", "math/rand/v2":
			if isGlobalRand(fn.Name()) {
				pass.ReportfFix(call.Pos(), seedFix,
					"global math/rand %s() draws from a process-wide, unseeded stream; the deterministic zone must not use it",
					fn.Name())
			}
		}
		return true
	})
	return nil
}

func restricted(path string) bool {
	for _, p := range Restricted {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// isGlobalRand matches math/rand package-level draws from the shared
// source. Constructors (New, NewSource, NewZipf, NewPCG, NewChaCha8)
// are allowed here — the seedflow analyzer polices their seeds.
func isGlobalRand(name string) bool {
	switch name {
	case "Int", "Intn", "Int31", "Int31n", "Int63", "Int63n",
		"Int32", "Int32N", "Int64", "Int64N", "IntN", "N",
		"Uint", "Uint32", "Uint32N", "Uint64", "Uint64N", "UintN",
		"Float32", "Float64", "ExpFloat64", "NormFloat64",
		"Perm", "Shuffle", "Seed", "Read":
		return true
	}
	return false
}

func pkgBase(p string) string {
	if i := strings.LastIndex(p, "/"); i >= 0 {
		return p[i+1:]
	}
	return p
}
