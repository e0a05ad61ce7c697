// Command conjecture runs the randomized verification campaign for the
// paper's Conjecture 1 (Section V.C.2): for random positive definite
// Stieltjes matrices S with H = S^{-1}, DIAG(h_k) H DIAG(h_l) is
// positive definite for every pair of rows. The paper reports millions
// of matrices verified; this tool runs campaigns of any size.
//
// Usage:
//
//	conjecture [-matrices 1000] [-maxorder 20] [-pairs 0] [-seed 1]
//	           [-family random|grid|path|tree] [-parallel N]
//
// -pairs 0 checks every (k, l) pair per matrix.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"tecopt/internal/core"
	"tecopt/internal/obs"
)

func main() {
	matrices := flag.Int("matrices", 1000, "number of random Stieltjes matrices")
	maxOrder := flag.Int("maxorder", 20, "maximum matrix order")
	pairs := flag.Int("pairs", 0, "sampled (k,l) pairs per matrix (0 = all pairs)")
	seed := flag.Int64("seed", 1, "PRNG seed")
	density := flag.Float64("density", 0.3, "extra-edge probability of the generator")
	// -family is checked at flag.Parse, so a bad value exits 2 like an
	// unknown flag.
	fam := core.FamilyRandom
	flag.Func("family", `matrix ensemble: random, grid, path or tree (default "random")`, func(v string) error {
		switch v {
		case "random":
			fam = core.FamilyRandom
		case "grid":
			fam = core.FamilyGrid
		case "path":
			fam = core.FamilyPath
		case "tree":
			fam = core.FamilyTree
		default:
			return fmt.Errorf("want random, grid, path or tree")
		}
		return nil
	})
	parallel := flag.Int("parallel", 1, "trial workers (0 = all cores, 1 = serial); report is identical either way")
	obsFlags := obs.BindFlags(flag.CommandLine)
	flag.Parse()
	os.Exit(obsFlags.Run("conjecture", func(ctx context.Context) error {
		start := time.Now()
		rep, err := core.VerifyConjecture1Ctx(ctx, rand.New(rand.NewSource(*seed)), core.ConjectureOptions{
			Matrices: *matrices, MaxOrder: *maxOrder, PairsPerMatrix: *pairs, Density: *density,
			Family: fam, Parallel: *parallel,
		})
		if err != nil {
			// Flush the partial campaign: the completed trials are still
			// evidence.
			fmt.Printf("conjecture-1 campaign (PARTIAL): %d matrices, %d pairs checked, %d violations before error\n",
				rep.Matrices, rep.PairsChecked, rep.Violations)
			return err
		}
		fmt.Printf("conjecture-1 campaign: %d matrices, %d pairs checked in %v\n",
			rep.Matrices, rep.PairsChecked, time.Since(start).Round(time.Millisecond))
		if rep.Violations == 0 {
			fmt.Println("no violations: Conjecture 1 holds on every sampled case")
			return nil
		}
		fmt.Printf("VIOLATIONS: %d\n", rep.Violations)
		if rep.FirstViolation != nil {
			fmt.Printf("first counterexample: k=%d l=%d S=\n%v\n",
				rep.FirstViolation.K, rep.FirstViolation.L, rep.FirstViolation.S)
		}
		return fmt.Errorf("%d violation(s) of Conjecture 1", rep.Violations)
	}))
}
