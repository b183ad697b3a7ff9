// Command swbench regenerates every figure and in-text table of the
// paper's evaluation (Section V) from the simulated heterogeneous system,
// and compares cluster workload-distribution strategies over arbitrary
// device rosters.
//
// Usage:
//
//	swbench [-fig all|fig3|fig4|fig5|fig6|fig7|fig8|eff|sched|power|transfer]
//	        [-scale 1.0] [-csv] [-summary] [-o out.txt]
//	swbench -devices xeon,phi,phi -dist dynamic [-scale 1.0]
//	swbench -devices xeon,phi -db db.swdb
//
// By default the full 541,561-sequence synthetic Swiss-Prot is simulated
// (fast: the device models consume shape information only; see
// internal/device).
// GCUPS values are simulated-device throughput; run cmd/swverify or the
// examples for functional (wall-clock) execution.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"heterosw/internal/core"
	"heterosw/internal/datagen"
	"heterosw/internal/device"
	"heterosw/internal/figures"
	"heterosw/internal/report"
	"heterosw/internal/sched"
	"heterosw/internal/seqdb/index"
)

func main() {
	var (
		fig     = flag.String("fig", "all", "figure to regenerate: all, fig3..fig8, eff, sched, power, transfer")
		scale   = flag.Float64("scale", 1.0, "database scale relative to Swiss-Prot 2013_11 (541,561 sequences)")
		csv     = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		summary = flag.Bool("summary", false, "one line per figure (best value per series)")
		outPath = flag.String("o", "", "write output to a file instead of stdout")
		devices = flag.String("devices", "", "cluster mode: comma-separated roster (e.g. xeon,phi,phi)")
		dbPath  = flag.String("db", "", "cluster mode: plan over this database (FASTA or .swdb) instead of the synthetic corpus")
		dist    = flag.String("dist", "", "cluster mode: compare only this distribution (default: all)")
		qlen    = flag.Int("qlen", 1000, "cluster mode: query length")
		variant = flag.String("variant", "intrinsic-SP", "cluster mode: kernel variant spec (append -8bit for the precision ladder)")
	)
	flag.Parse()

	var out io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		out = f
	}

	if *devices != "" {
		if *csv || *summary {
			fatal(fmt.Errorf("-csv and -summary are not supported with -devices (cluster mode prints one fixed table)"))
		}
		if err := clusterBench(out, *devices, *dist, *variant, *dbPath, *scale, *qlen); err != nil {
			fatal(err)
		}
		return
	}
	if *dbPath != "" {
		fatal(fmt.Errorf("-db needs cluster mode (-devices); the figures always use the synthetic corpus"))
	}

	start := time.Now()
	w := figures.NewWorkload(*scale)
	fmt.Fprintf(out, "# swbench: %s\n", w)
	fmt.Fprintf(out, "# devices: Xeon (16c/32t, 256-bit) + Xeon Phi (60c/240t, 512-bit); BLOSUM62, gaps 10/2\n")
	fmt.Fprintf(out, "# vec backend: %s\n", device.HostSIMD())
	fmt.Fprintf(out, "# GCUPS below are simulated-device throughput (device cost model, internal/device)\n\n")

	var figs []*figures.Figure
	if *fig == "all" {
		figs = figures.All(w)
	} else {
		for _, id := range strings.Split(*fig, ",") {
			f, err := figures.ByID(w, strings.TrimSpace(id))
			if err != nil {
				fatal(err)
			}
			figs = append(figs, f)
		}
	}
	for _, f := range figs {
		var err error
		switch {
		case *summary:
			err = report.Summary(out, f)
		case *csv:
			err = report.CSV(out, f)
		default:
			err = report.Table(out, f)
		}
		if err != nil {
			fatal(err)
		}
	}
	fmt.Fprintf(out, "# generated in %v\n", time.Since(start).Round(time.Millisecond))
}

// clusterBench compares workload-distribution strategies for a device
// roster at shape level: the full database is planned, never executed, so
// the comparison runs in milliseconds at any scale.
func clusterBench(out io.Writer, roster, only, variant, dbPath string, scale float64, queryLen int) error {
	models := device.Devices()
	var backends []core.Backend
	var names []string
	for i, d := range strings.Split(roster, ",") {
		d = strings.TrimSpace(d)
		m, ok := models[d]
		if !ok {
			return fmt.Errorf("unknown device %q (have xeon, phi)", d)
		}
		name := fmt.Sprintf("%s#%d", d, i)
		backends = append(backends, core.NewBackend(name, m, 0))
		names = append(names, name)
	}
	var lengths []int
	if dbPath != "" {
		// A real database (FASTA or preprocessed .swdb, sniffed by magic);
		// planning only needs its length distribution.
		db, _, err := index.LoadDatabase(dbPath)
		if err != nil {
			return err
		}
		lengths = db.OrderLengths()
	} else {
		lengths = datagen.Lengths(datagen.SwissProtConfig(scale))
	}
	var residues int64
	for _, l := range lengths {
		residues += int64(l)
	}
	cells := float64(queryLen) * float64(residues)

	dists := []core.Distribution{core.DistStatic, core.DistDynamic, core.DistGuided}
	if only != "" {
		d, err := core.ParseDistribution(only)
		if err != nil {
			return err
		}
		dists = []core.Distribution{d}
	}
	v, prec, err := core.ParseVariantSpec(variant)
	if err != nil {
		return err
	}
	opt := core.DispatchOptions{Search: core.SearchOptions{
		Params:   core.Params{Variant: v, GapOpen: 10, GapExtend: 2, Blocked: true, Prec: prec},
		Schedule: sched.Dynamic,
	}}

	fmt.Fprintf(out, "# cluster: %s over %d sequences (%d residues), query %d aa, variant %s\n",
		roster, len(lengths), residues, queryLen, core.VariantSpec(v, prec))
	fmt.Fprintf(out, "# static shares are model-balanced (OptimalShares); GCUPS is simulated throughput\n\n")
	fmt.Fprintf(out, "%-8s %12s %10s", "dist", "makespan s", "GCUPS")
	for _, n := range names {
		fmt.Fprintf(out, " %16s", n)
	}
	fmt.Fprintln(out)
	for _, d := range dists {
		o := opt
		o.Dist = d
		p, err := core.PlanLengths(lengths, queryLen, backends, o)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%-8s %12.4f %10.2f", d, p.Makespan, cells/p.Makespan/1e9)
		for i := range backends {
			fmt.Fprintf(out, "  %5.1f%% (%2d chk)", p.Shares[i]*100, p.Chunks[i])
		}
		fmt.Fprintln(out)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "swbench:", err)
	os.Exit(1)
}
