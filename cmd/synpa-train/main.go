// Command synpa-train runs the §IV-C training pipeline and prints the
// fitted Table IV-style coefficients and their accuracy, next to the
// paper's published values.
//
// Usage:
//
//	synpa-train                      # train on the 22-app training set
//	synpa-train -apps mcf,lbm_r,...  # train on an explicit set
//	synpa-train -categories 10       # the discarded 10-category model
//	synpa-train -out model.json      # save the model for synpad / /v1/model
//
// A category whose training responses are all equal (one the training
// runs never exercised) fits exactly and carries no information; each such
// category gets a warning line on standard error.
//
// -out writes the fitted model in the JSON wire format core.ReadModelJSON
// (and synpad's -model flag and POST /v1/model endpoint) accepts; float64
// coefficients round-trip exactly through JSON, so the reloaded model
// places bit-identically to the freshly trained one.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"synpa/internal/apps"
	"synpa/internal/core"
	"synpa/internal/train"
)

func main() {
	var (
		appList    = flag.String("apps", "", "comma-separated application names (default: the 22-app training set)")
		categories = flag.Int("categories", 3, "3 (paper final) or 10 (discarded preliminary)")
		quanta     = flag.Int("pairquanta", 0, "SMT quanta per pair (default from train options)")
		seed       = flag.Uint64("seed", 0, "random seed")
		out        = flag.String("out", "", "write the fitted model as JSON to this path (the synpad model format)")
	)
	flag.Parse()

	models := apps.TrainingSet()
	if *appList != "" {
		models = nil
		for _, name := range strings.Split(*appList, ",") {
			m, err := apps.ByName(strings.TrimSpace(name))
			if err != nil {
				fmt.Fprintln(os.Stderr, "synpa-train:", err)
				os.Exit(1)
			}
			models = append(models, m)
		}
	}

	opts := train.DefaultOptions()
	if *quanta > 0 {
		opts.PairQuanta = *quanta
		if opts.IsolatedQuanta < *quanta {
			opts.IsolatedQuanta = *quanta + 20
		}
	}
	if *seed != 0 {
		opts.Seed = *seed
	}
	switch *categories {
	case 3:
	case 10:
		opts.Extract = core.TenCategoryFractions
		opts.Categories = core.TenCategories
	default:
		fmt.Fprintln(os.Stderr, "synpa-train: -categories must be 3 or 10")
		os.Exit(1)
	}

	model, rep, err := train.Train(models, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "synpa-train:", err)
		os.Exit(1)
	}

	for _, name := range rep.Constant {
		fmt.Fprintf(os.Stderr, "synpa-train: warning: category %q has a constant response over the training samples; its fit carries no information\n", name)
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err == nil {
			err = core.WriteModelJSON(f, model)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "synpa-train: -out:", err)
			os.Exit(1)
		}
		fmt.Printf("model written to %s\n", *out)
	}

	fmt.Printf("trained on %d applications, %d SMT pairs, %d aligned samples\n\n",
		rep.Apps, rep.Pairs, rep.Samples)
	fmt.Printf("%-22s %9s %9s %9s %9s %9s %7s\n",
		"Category", "alpha", "beta", "gamma", "rho", "MSE", "R^2")
	for k, name := range model.Categories {
		c := model.Coef[k]
		fmt.Printf("%-22s %9.4f %9.4f %9.4f %9.4f %9.4f %7.3f\n",
			name, c.Alpha, c.Beta, c.Gamma, c.Rho, rep.MSE[k], rep.R2[k])
	}
	if *categories == 3 {
		fmt.Println("\npaper Table IV (ThunderX2 hardware):")
		paper := core.PaperCoefficients()
		for k, name := range paper.Categories {
			c := paper.Coef[k]
			fmt.Printf("%-22s %9.4f %9.4f %9.4f %9.4f %9.4f\n",
				name, c.Alpha, c.Beta, c.Gamma, c.Rho, paper.MSE[k])
		}
	}
}
