// Command bench is the repository benchmark. It drives four workloads
// through the public functions of each layer - graph generation, the CONGEST
// engine, hopset explorations, the facade's Build, Compile and DataPlane -
// checks every output, and prints every metric by name with its unit. The
// last line of output is a JSON result:
//
//	{"correct": true, "attempted": 45, "failed": 0, "metrics": {"op_p50_ms": {"value": 451.2, "unit": "ms"}, ...}}
//
// Usage, from the repository root:
//
//	bash bench/run.sh -workload build-er192-k2 -seed 1            # end-to-end metrics
//	bash bench/run.sh -workload build-er192-k2 -seed 1 -trace 1   # per-layer ledger
//	bash bench/run.sh -workload all -seed 1 -repeat 2             # every workload twice, with spreads
//
// README.md lists the workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// goldenPath holds the outcomes seed 1 must reproduce, by workload.
const goldenPath = "testdata/golden_seed1.json"

func main() { os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr)) }

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", `workload to run, or "all" to run each in a process of its own`)
	seed := fs.Int64("seed", 1, "workload seed: every input of the run derives from it")
	seconds := fs.Float64("seconds", defaultSeconds, "run length: sets the op count of build and explore runs in proportion, and how long serve routes")
	traced := fs.Int("trace", 0, "1 runs traced and prints the per-layer ledger instead of the end-to-end metrics")
	repeat := fs.Int("repeat", 1, "run the workload(s) this many times, each in a process of its own, and print the spread")
	writeGolden := fs.Bool("write-golden", false, "store this seed-1 run's outcomes in "+goldenPath+" (one workload, one run)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *name == "" || fs.NArg() > 0 || (*traced != 0 && *traced != 1) || *repeat < 1 || *seconds < 0 ||
		(*writeGolden && (*name == "all" || *repeat > 1)) {
		fmt.Fprintln(stderr, "usage: bench -workload <name|all> [-seed n] [-seconds s] [-trace 0|1] [-repeat n]")
		fmt.Fprintln(stderr, "       bench -workload <name> -seed 1 -write-golden")
		return 2
	}
	fmt.Fprintln(stdout, provenance())
	if *name == "all" || *repeat > 1 {
		names := []string{*name}
		if *name == "all" {
			names = nil
			for _, w := range workloads {
				names = append(names, w.name)
			}
		}
		childArgs := []string{"-seed", strconv.FormatInt(*seed, 10),
			"-seconds", strconv.FormatFloat(*seconds, 'g', -1, 64), "-trace", strconv.Itoa(*traced)}
		return runChildren(names, childArgs, *repeat, *traced == 1, stdout, stderr)
	}

	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	r := &run{w: w, seed: *seed, seconds: *seconds, traced: *traced == 1, outDir: "out", log: stderr}
	if *writeGolden && (*seed != 1 || r.traced) {
		fmt.Fprintln(stderr, "bench: -write-golden takes seed 1 and -trace 0")
		return 2
	}
	if *seed == 1 && !*writeGolden {
		golden, err := readGolden(goldenPath)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		if r.golden = golden[w.name]; len(r.golden) == 0 {
			fmt.Fprintf(stderr, "bench: %s has no golden outcomes in %s\n", w.name, goldenPath)
			return 1
		}
	}
	if err := r.execute(); err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	if *writeGolden {
		if err := writeGoldenOutcomes(goldenPath, w.name, r.outcomes); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	if err := r.report(stdout); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

func readGolden(path string) (map[string][]outcome, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read golden outcomes: %w", err)
	}
	var g map[string][]outcome
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return g, nil
}

func writeGoldenOutcomes(path, name string, outs []outcome) error {
	g, err := readGolden(path)
	if errors.Is(err, os.ErrNotExist) {
		g, err = map[string][]outcome{}, nil
	}
	if err != nil {
		return err
	}
	g[name] = outs
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runChildren runs each named workload repeat times, each run in a fresh
// process of this binary so that each reports its own peak RSS, and with
// repeat > 1 prints every metric's median, quartiles and spread. It returns
// 1 if any run failed or reported a failed check.
func runChildren(names, args []string, repeat int, traced bool, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	code := 0
	values := map[string]map[string][]float64{}
	for rep := 0; rep < repeat; rep++ {
		for _, name := range names {
			var out bytes.Buffer
			cmd := exec.Command(self, append([]string{"-workload", name}, args...)...)
			cmd.Stdout = io.MultiWriter(stdout, &out)
			cmd.Stderr = stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
				code = 1
				continue
			}
			res, err := lastResult(out.Bytes())
			if err != nil || !res.Correct {
				fmt.Fprintf(stderr, "bench: %s: result %+v (%v)\n", name, res, err)
				code = 1
				continue
			}
			if values[name] == nil {
				values[name] = map[string][]float64{}
			}
			for m, v := range res.Metrics {
				values[name][m] = append(values[name][m], v.Value)
			}
		}
	}
	if repeat > 1 {
		printSpreads(stdout, names, values, traced)
	}
	return code
}

// lastResult parses the JSON result on the last line of a run's output.
func lastResult(out []byte) (result, error) {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	err := json.Unmarshal([]byte(lines[len(lines)-1]), &res)
	return res, err
}

// printSpreads prints, per workload and metric, the median, the quartiles
// and the quartile spread as a share of the median beside the metric's
// bound; "WIDE" marks a spread the bound does not cover.
func printSpreads(out io.Writer, names []string, values map[string]map[string][]float64, traced bool) {
	cat := endToEnd
	if traced {
		cat = perLayer
	}
	fmt.Fprintf(out, "%-18s %-44s %14s %14s %14s %8s %6s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound")
	for _, name := range names {
		for _, m := range cat {
			xs := values[name][m.Name]
			if len(xs) < 2 {
				continue
			}
			q1, q2, q3 := quartiles(xs)
			sp := spread(xs)
			flag := ""
			if m.Bound > 0 && sp > m.Bound {
				flag = "WIDE"
			}
			fmt.Fprintf(out, "%-18s %-44s %14.6g %14.6g %14.6g %7.2f%% %5.0f%% %s\n",
				name, m.Name, q2, q1, q3, sp*100, m.Bound*100, flag)
		}
	}
}
