// Command benchmark is the repository's benchmark: four closed-loop
// workloads over one generated stream, eight end-to-end metrics each, and a
// traced run that attributes the cost to layers. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"syscall"
)

// envInfo stamps every result with where it was measured.
type envInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"git_commit"`
	Kernel     string `json:"kernel"`
	Seed       int64  `json:"seed"`
}

func environment(seed int64) envInfo {
	env := envInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Kernel:     "unknown",
		Seed:       seed,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		b := make([]byte, 0, len(u.Release))
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		env.Kernel = string(b)
	}
	return env
}

// guard refuses an environment the numbers would not mean anything in:
// more runnable threads or more ingest connections than processors.
func guard(env envInfo, conns int) error {
	if env.GOMAXPROCS > env.NProc {
		return fmt.Errorf("GOMAXPROCS %d exceeds nproc %d: the run would be oversubscribed", env.GOMAXPROCS, env.NProc)
	}
	if conns > env.NProc {
		return fmt.Errorf("%d ingest connections exceed nproc %d", conns, env.NProc)
	}
	return nil
}

func main() {
	var (
		workload = flag.String("workload", "", "run one workload in this process and print its result as the last line (lib_sketch, serve_tcp, serve_small, fleet); empty runs all four, each in a fresh child process")
		seed     = flag.Int64("seed", 1, "workload seed: the only workload argument")
		seconds  = flag.Int("seconds", 15, "length of the timed region in seconds")
		traceOn  = flag.Int("trace", 0, "1 runs traced and reports the per-layer metrics; 0 reports the end-to-end metrics")
		spans    = flag.String("spans", "", "where a traced run writes its spans (default .bench_build/spans-<workload>.json)")
		quick    = flag.Bool("quick", false, "tiny sizes, for tests only; never for reported numbers")
		self     = flag.Bool("selfcheck", false, "run the untraced suite twice on this tree and fail if any end-to-end metric disagrees by more than its bound")
		summary  = flag.String("summarize", "", "print the per-layer table of a span file and exit")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *summary != "" {
		if err := summarize(os.Stdout, *summary); err != nil {
			fatal(err)
		}
		return
	}
	env := environment(*seed)
	if err := guard(env, producerCount()); err != nil {
		fatal(err)
	}
	if *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fatal(fmt.Errorf("-seconds must be >= 1 and -trace 0 or 1"))
	}
	stamp, _ := json.Marshal(env)
	fmt.Printf("env %s\n", stamp)

	switch {
	case *self:
		if err := selfcheck(*seed, *seconds, *quick); err != nil {
			fatal(err)
		}
	case *workload == "":
		if err := suite(*seed, *seconds, *traceOn == 1, *quick); err != nil {
			fatal(err)
		}
	default:
		sp, ok := specByName(*workload)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		sz := fullSizes(*seconds)
		if *quick {
			sz = quickSizes()
		}
		path := *spans
		if path == "" {
			path = fmt.Sprintf(".bench_build/spans-%s.json", sp.name)
		}
		res, err := runWorkload(sp, *seed, sz, *traceOn == 1, path, os.Stdout)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", sp.name, err))
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", line)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
