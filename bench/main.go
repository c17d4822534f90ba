// Command bench is the repository's benchmark: four workloads driven over
// loopback TCP against a durable group-commit engine, seven end-to-end
// metrics, and per-layer metrics measured from outside the program. See
// README.md for what it measures and why, and BENCHMARK.json at the repo root
// for the contract the driver reads.
//
//	bash bench/run.sh                                   # all workloads, both passes
//	bash bench/run.sh -workload point_read -trace 0     # one workload, end-to-end only
//	bash bench/run.sh -compare a.json b.json            # do two sets of runs agree?
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// envelope is the one JSON document a run prints: where and how it ran, then
// each workload's metrics.
type envelope struct {
	Commit          string            `json:"commit"`
	GoVersion       string            `json:"go_version"`
	NProc           int               `json:"nproc"`
	GOMAXPROCS      int               `json:"gomaxprocs"`
	Clients         int               `json:"clients"`
	Seed            int64             `json:"seed"`
	Seconds         float64           `json:"seconds"`
	DataDirFS       string            `json:"data_dir_filesystem"`
	SyncPolicy      string            `json:"sync_policy"`
	CheckpointBytes int64             `json:"checkpoint_bytes"`
	DatasetRows     map[string]int    `json:"dataset_rows"`
	Workloads       []*workloadResult `json:"workloads"`
}

// commit is the revision the binary was built from; run.sh sets it at link
// time when the checkout is a git repository, which the driver's is not.
var commit = "unknown"

// driverLine is the last line the driver reads from a run of one workload.
type driverLine struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	workloadFlag := flag.String("workload", "", "workload to run (default: all four)")
	seed := flag.Int64("seed", 1, "seed of the dataset and the operation streams")
	seconds := flag.Float64("seconds", 15, "length of the measured window")
	trace := flag.String("trace", "", "0: end-to-end metrics only; 1: per-layer metrics only; unset: both. With 0 or 1 the last line of output is the driver's result object")
	compare := flag.Bool("compare", false, "compare two files of results: -compare a.json b.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare wants two result files"))
		}
		agree, err := compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !agree {
			os.Exit(1)
		}
		return
	}

	run := workloads
	if *workloadFlag != "" {
		w := findWorkload(*workloadFlag)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *workloadFlag))
		}
		run = []*workload{w}
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, clients: min(runtime.NumCPU(), 4)}
	switch *trace {
	case "":
		cfg.endToEnd, cfg.layers = true, true
	case "0":
		cfg.endToEnd = true
	case "1":
		cfg.layers = true
	default:
		fatal(fmt.Errorf("-trace wants 0 or 1, not %q", *trace))
	}
	if *trace != "" && len(run) != 1 {
		fatal(fmt.Errorf("-trace %s reports one workload: name it with -workload", *trace))
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}
	env := envelope{
		Commit: commit, GoVersion: runtime.Version(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Clients: cfg.clients,
		Seed: cfg.seed, Seconds: cfg.seconds,
		DataDirFS: fsType(outDir), SyncPolicy: "group", CheckpointBytes: checkpointBytes,
		DatasetRows: map[string]int{"DEPT": nDepts, "EMP": nEmps, "PROJ": nProjs, "SKILLS": nSkills},
	}
	for _, w := range run {
		res, err := runWorkload(w, cfg)
		if err != nil {
			fatal(err)
		}
		env.Workloads = append(env.Workloads, res)
		if res.LayerTable != nil {
			printLayerTable(os.Stderr, w.name, res.LayerTable)
		}
	}
	doc, err := json.MarshalIndent(&env, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(filepath.Join(outDir, "result.json"), append(doc, '\n'), 0o644); err != nil {
		fatal(err)
	}

	wrong := 0
	for _, r := range env.Workloads {
		wrong += r.Wrong
	}
	if *trace == "" {
		fmt.Println(string(doc))
	} else {
		r := env.Workloads[0]
		line := driverLine{Correct: wrong == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.PerLayer}
		if cfg.endToEnd {
			line.Metrics = metrics{}
			for _, name := range driverEndToEnd {
				line.Metrics[name] = r.EndToEnd[name]
			}
		}
		out, err := json.Marshal(&line)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(out))
	}
	if wrong > 0 {
		fatal(fmt.Errorf("%d operations got a wrong answer", wrong))
	}
}

// driverEndToEnd are the end-to-end metrics BENCHMARK.json bounds; README.md,
// "End-to-end metrics", has the reasons. The tail is bounded as its ratio to
// the median, lat_p95_over_p50, which the host's weather leaves alone, where
// lat_p95_us and lat_p99_us move with it. failed_frac is 0 on a healthy run
// and log_bytes_per_write on a read-only workload, and the driver's bounds
// are shares of the parent's median: failed_frac is bounded as its complement
// ok_frac, and -compare gates both in their own units (see zeroBased). What
// is not bounded reaches the driver with the per-layer metrics.
var driverEndToEnd = []string{"ops_per_s", "lat_p50_us", "lat_p95_over_p50", "ok_frac", "peak_rss_mb", "setup_s"}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
