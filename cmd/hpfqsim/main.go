// Command hpfqsim regenerates the paper's figures and examples as tab-
// separated series on stdout (one experiment per subcommand). See
// EXPERIMENTS.md for the mapping to the paper's tables and figures.
//
// Usage:
//
//	hpfqsim fig2
//	hpfqsim fig4|fig5|fig6|fig7 [-algo WF2Q+] [-dur 10] [-seed 1]
//	hpfqsim fig9 [-algo WF2Q+] [-dur 10] [-seed 1] [-session 0]
//	hpfqsim wfi  [-algo WFQ] [-n 64]
//	hpfqsim wfisweep [-algos WFQ,SCFQ,SFQ,WF2Q,WF2Q+,DRR] [-ns 2,4,8,...,256]
//	hpfqsim bound [-algo WF2Q+] [-dur 30]
//	hpfqsim burst [-algo WFQ] [-n 1001]
//	hpfqsim multihop [-algo WF2Q+] [-dur 20]
//	hpfqsim tree [-topo fig3] [-sigma bits] [-lmax bits]
//	hpfqsim run [-algo WF2Q+] [-hier] [-topo spec] [-dur 2] [-metrics] [-trace file.jsonl]
//
// The run subcommand (also reachable as plain "hpfqsim -metrics -trace f")
// demonstrates the observability layer: -metrics prints per-class counter,
// delay, and WFI tables for the scheduler, the link, and (with -hier) every
// interior node, plus the DES kernel counters; -trace streams every
// enqueue/dequeue/drop event as JSON lines with the virtual start/finish
// times of each scheduling decision.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"hpfq/internal/experiments"
	"hpfq/internal/topo"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	if strings.HasPrefix(cmd, "-") {
		// Bare flags select the observability demo: hpfqsim -metrics -trace f.
		cmd, args = "run", os.Args[1:]
	}
	var err error
	switch cmd {
	case "run":
		err = runRun(args)
	case "fig2":
		err = runFig2()
	case "fig4", "fig6", "fig7":
		err = runDelay(cmd, args)
	case "fig5":
		err = runLag(args)
	case "fig9":
		err = runFig9(args)
	case "wfi":
		err = runWFI(args)
	case "wfisweep":
		err = runWFISweep(args)
	case "bound":
		err = runBound(args)
	case "burst":
		err = runBurst(args)
	case "multihop":
		err = runMultihop(args)
	case "tree":
		err = runTree(args)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hpfqsim:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: hpfqsim <fig2|fig4|fig5|fig6|fig7|fig9|wfi|wfisweep|bound|burst|multihop|tree|run> [flags]
run "hpfqsim <cmd> -h" for per-command flags`)
}

func runFig2() error {
	res := experiments.RunFig2()
	fmt.Println("# Fig. 2: GPS finish times and packet service orders")
	fmt.Printf("gps\tsession1\t")
	for _, f := range res.GPSFinish {
		fmt.Printf("%g ", f)
	}
	fmt.Printf("\ngps\tothers\t%g\n", res.GPSOthers)
	for _, algo := range []string{"WFQ", "WF2Q", "WF2Q+"} {
		fmt.Printf("%s\torder\t%s\n", algo, res.Timeline(algo))
	}
	return nil
}

func scenarioOf(cmd string) experiments.Scenario {
	switch cmd {
	case "fig6":
		return experiments.ScenarioOverload
	case "fig7":
		return experiments.ScenarioOverloadCS
	default:
		return experiments.ScenarioNominal
	}
}

func runDelay(cmd string, args []string) error {
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	algo := fs.String("algo", "", "one algorithm only (default: WFQ and WF2Q+ side by side)")
	dur := fs.Float64("dur", 10, "simulated seconds")
	seed := fs.Int64("seed", 1, "random seed")
	fs.Parse(args)

	algos := []string{"WFQ", "WF2Q+"}
	if *algo != "" {
		algos = []string{*algo}
	}
	sc := scenarioOf(cmd)
	fmt.Printf("# %s: RT-1 packet delays, Fig. 3 hierarchy, scenario %d\n", cmd, sc)
	fmt.Println("algo\tdepart_s\tdelay_ms")
	for _, a := range algos {
		res, err := experiments.RunDelay(a, sc, *dur, *seed)
		if err != nil {
			return err
		}
		for _, s := range res.Delays.Samples {
			fmt.Printf("%s\t%.6f\t%.3f\n", res.Algo, s.T, s.D*1e3)
		}
		fmt.Printf("# %s: packets=%d max=%.3fms mean=%.3fms p99=%.3fms\n",
			res.Algo, res.Delays.Count(), res.MaxDelay()*1e3,
			res.Delays.Mean()*1e3, res.Delays.Quantile(0.99)*1e3)
	}
	return nil
}

func runLag(args []string) error {
	fs := flag.NewFlagSet("fig5", flag.ExitOnError)
	algo := fs.String("algo", "", "one algorithm only")
	dur := fs.Float64("dur", 10, "simulated seconds")
	seed := fs.Int64("seed", 1, "random seed")
	fs.Parse(args)

	algos := []string{"WFQ", "WF2Q+"}
	if *algo != "" {
		algos = []string{*algo}
	}
	fmt.Println("# fig5: RT-1 cumulative arrival and service curves (service lag)")
	fmt.Println("algo\tcurve\ttime_s\tpackets")
	for _, a := range algos {
		res, err := experiments.RunDelay(a, experiments.ScenarioNominal, *dur, *seed)
		if err != nil {
			return err
		}
		for _, p := range res.Curve.Arrivals {
			fmt.Printf("%s\tarrived\t%.6f\t%d\n", res.Algo, p.T, p.N)
		}
		for _, p := range res.Curve.Services {
			fmt.Printf("%s\tserved\t%.6f\t%d\n", res.Algo, p.T, p.N)
		}
		fmt.Printf("# %s: max service lag = %d packets\n", res.Algo, res.Curve.MaxLag())
	}
	return nil
}

func runFig9(args []string) error {
	fs := flag.NewFlagSet("fig9", flag.ExitOnError)
	algo := fs.String("algo", "WF2Q+", "per-node algorithm")
	dur := fs.Float64("dur", 10, "simulated seconds")
	seed := fs.Int64("seed", 1, "random seed")
	sess := fs.Int("session", -1, "one TCP session only (0-based), -1 = all")
	fs.Parse(args)

	res, err := experiments.RunFig9(*algo, *dur, *seed)
	if err != nil {
		return err
	}
	fmt.Printf("# fig9: TCP bandwidth vs ideal H-GPS shares under %s\n", res.Algo)
	fmt.Println("session\ttime_s\tmeasured_mbps\tideal_mbps")
	for s := 0; s < experiments.NumTCP; s++ {
		if *sess >= 0 && s != *sess {
			continue
		}
		m, id := res.Measured[s], res.Ideal[s]
		for i := range m {
			ideal := 0.0
			if i < len(id) {
				ideal = id[i].Bps
			}
			fmt.Printf("%s\t%.3f\t%.4f\t%.4f\n", res.Names[s], m[i].T, m[i].Bps/1e6, ideal/1e6)
		}
	}
	for s := 0; s < experiments.NumTCP; s++ {
		fmt.Printf("# %s: delivered=%d retrans=%d meanAbsErr=%.3f Mbps\n",
			res.Names[s], res.Delivered[s], res.Retrans[s],
			res.MeanAbsError(s, 1, *dur)/1e6)
	}
	return nil
}

func runWFI(args []string) error {
	fs := flag.NewFlagSet("wfi", flag.ExitOnError)
	algo := fs.String("algo", "WFQ", "flat algorithm")
	n := fs.Int("n", 64, "number of sessions")
	fs.Parse(args)

	res, err := experiments.RunWFISweep(*algo, []int{*n})
	if err != nil {
		return err
	}
	printWFIHeader()
	printWFI(res[0])
	return nil
}

func runWFISweep(args []string) error {
	fs := flag.NewFlagSet("wfisweep", flag.ExitOnError)
	algos := fs.String("algos", "WFQ,SCFQ,SFQ,WF2Q,WF2Q+,DRR", "comma-separated algorithms")
	nsFlag := fs.String("ns", "2,4,8,16,32,64,128,256", "comma-separated session counts (each ≥ 2)")
	fs.Parse(args)

	var ns []int
	for _, f := range strings.Split(*nsFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 2 {
			return fmt.Errorf("wfisweep: bad session count %q", f)
		}
		ns = append(ns, n)
	}
	printWFIHeader()
	for _, a := range strings.Split(*algos, ",") {
		res, err := experiments.RunWFISweep(strings.TrimSpace(a), ns)
		if err != nil {
			return err
		}
		for _, r := range res {
			printWFI(r)
		}
	}
	return nil
}

func printWFIHeader() {
	fmt.Println("# E9: empirical worst-case fair indices (Theorems 3/4: WF2Q/WF2Q+ stay at ~1 packet)")
	fmt.Println("algo\tN\tbwfi_bits\tbwfi_pkts\ttwfi_ms\ttheorem_bits")
}

func printWFI(r *experiments.WFIResult) {
	fmt.Printf("%s\t%d\t%.0f\t%.2f\t%.3f\t%.0f\n",
		r.Algo, r.N, r.BWFIBits, r.BWFIPkts, r.TWFI*1e3, r.TheoremBits)
}

func runBound(args []string) error {
	fs := flag.NewFlagSet("bound", flag.ExitOnError)
	algo := fs.String("algo", "", "one algorithm only (default: all node algorithms)")
	dur := fs.Float64("dur", 30, "simulated seconds")
	fs.Parse(args)

	algos := []string{"WF2Q+", "WF2Q", "WFQ", "SCFQ", "SFQ", "DRR"}
	if *algo != "" {
		algos = []string{*algo}
	}
	fmt.Println("# E10: Corollary 2 delay bound for a (σ,r_i) session 4 levels deep")
	fmt.Println("algo\tmax_delay_ms\tbound_ms\tholds\tpackets")
	for _, a := range algos {
		res, err := experiments.RunBound(a, *dur)
		if err != nil {
			return err
		}
		fmt.Printf("%s\t%.3f\t%.3f\t%v\t%d\n",
			res.Algo, res.MaxDelay*1e3, res.Bound*1e3, res.Holds, res.Packets)
	}
	return nil
}

// runTree prints the paper topologies with per-node guaranteed rates and,
// for every session, the Corollary 2 delay bound an H-WF²Q+ hierarchy
// provides — the admission-control view of a configuration.
func runTree(args []string) error {
	fs := flag.NewFlagSet("tree", flag.ExitOnError)
	which := fs.String("topo", "fig3", "fig1, fig3, or fig8")
	sigma := fs.Float64("sigma", 4*65536, "session burst σ in bits for the bound column")
	lmax := fs.Float64("lmax", 65536, "maximum packet length in bits")
	fs.Parse(args)

	var top *topo.Node
	var rate float64
	switch *which {
	case "fig1":
		top, rate = experiments.Fig1Topology(), experiments.Fig1LinkRate
	case "fig3":
		top, rate = experiments.Fig3Topology(), experiments.Fig3LinkRate
	case "fig8":
		top, rate = experiments.Fig8Topology(), experiments.Fig8LinkRate
	default:
		return fmt.Errorf("unknown topology %q", *which)
	}
	rates := top.Rates(rate)
	top.Walk(func(n *topo.Node, depth int) {
		indent := strings.Repeat("  ", depth)
		if n.IsLeaf() {
			bound, err := top.DelayBound(rate, n.Session, *sigma, *lmax)
			if err != nil {
				return
			}
			fmt.Printf("%s%-10s %10.3f Mbps  session %-3d  D(σ=%.0fKb) = %.2f ms\n",
				indent, n.Name, rates[n]/1e6, n.Session, *sigma/1e3, bound*1e3)
			return
		}
		fmt.Printf("%s%-10s %10.3f Mbps\n", indent, n.Name, rates[n]/1e6)
	})
	return nil
}

func runMultihop(args []string) error {
	fs := flag.NewFlagSet("multihop", flag.ExitOnError)
	algo := fs.String("algo", "WF2Q+", "per-node algorithm")
	dur := fs.Float64("dur", 20, "simulated seconds")
	seed := fs.Int64("seed", 3, "random seed")
	fs.Parse(args)

	fmt.Println("# E13 (extension): end-to-end delay of a (σ,r_i) session across K H-PFQ hops")
	fmt.Println("algo\thops\tmax_e2e_ms\tbound_ms\tholds\tpackets")
	for _, hops := range []int{1, 2, 4, 8} {
		res, err := experiments.RunMultihop(*algo, hops, *dur, *seed)
		if err != nil {
			return err
		}
		fmt.Printf("%s\t%d\t%.3f\t%.3f\t%v\t%d\n",
			res.Algo, res.Hops, res.MaxDelay*1e3, res.Bound*1e3, res.Holds, res.Packets)
	}
	return nil
}

func runBurst(args []string) error {
	fs := flag.NewFlagSet("burst", flag.ExitOnError)
	algo := fs.String("algo", "", "one algorithm only (default: WFQ, WF2Q, WF2Q+)")
	n := fs.Int("n", 1001, "number of classes")
	fs.Parse(args)

	algos := []string{"WFQ", "WF2Q", "WF2Q+"}
	if *algo != "" {
		algos = []string{*algo}
	}
	fmt.Println("# E3 (§3.1): 30% reservation on 100 Mbps, 1500 B packets; paper: WFQ 120 ms vs GPS 0.4 ms")
	fmt.Println("algo\tN\tprobe_delay_ms\ttwfi_ms\tgps_empty_queue_ms")
	for _, a := range algos {
		res, err := experiments.RunBurst(a, *n)
		if err != nil {
			return err
		}
		fmt.Printf("%s\t%d\t%.3f\t%.3f\t%.3f\n",
			res.Algo, res.Sessions, res.ProbeDelay*1e3, res.TWFI*1e3, res.GPSDelay*1e3)
	}
	return nil
}
