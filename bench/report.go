package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// hostInfo is the host block every report carries: a number only counts
// together with the machine and build that produced it.
type hostInfo struct {
	CPUs       int    `json:"cpus"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
}

func readHost() hostInfo {
	h := hostInfo{
		CPUs:       runtime.NumCPU(),
		GoMaxProcs: benchProcs,
		GoVersion:  runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		Kernel:     "unknown",
		Commit:     "unknown",
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	// The commit is known only inside a git checkout; the driver's copies
	// are plain directories.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// workloadReport is every run of one workload in a report: the values of
// each metric in run order (seed, seed+1, ...), so -compare can take
// medians and quartiles over them.
type workloadReport struct {
	Seeds     []uint64             `json:"seeds"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Failures  []string             `json:"failures,omitempty"`
	EndToEnd  map[string][]float64 `json:"end_to_end"`
	PerLayer  map[string][]float64 `json:"per_layer,omitempty"`
}

// report is the all-workloads mode's output and -compare's input.
type report struct {
	Schema    int                        `json:"schema"`
	Host      hostInfo                   `json:"host"`
	Seconds   float64                    `json:"seconds"`
	Scale     float64                    `json:"scale"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

const reportSchema = 1

// runChild runs one workload in a fresh process of this same binary and
// returns its full result. A child that exits 1 reported failed
// operations — its result is still read; any other failure is an error.
func runChild(workload string, seed uint64, seconds, scale float64, trace bool) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(buildDir, "result-*.json")
	if err != nil {
		return nil, err
	}
	f.Close()
	defer os.Remove(f.Name())

	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(self,
		"--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds),
		"--scale", fmt.Sprint(scale), "--trace", t, "--result", f.Name())
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			return nil, fmt.Errorf("%s: %w", workload, err)
		}
	}
	data, err := os.ReadFile(f.Name())
	if err != nil {
		return nil, err
	}
	var res result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("%s result: %w", workload, err)
	}
	return &res, nil
}

// runAll runs every workload `runs` times (seeds seed, seed+1, ...), each
// run a fresh process; with trace, each end-to-end run is followed by a
// -trace run at the same seed. It reports whether every operation passed.
//
// When the report file already exists the new runs are appended to it, so
// that two checkouts can be measured alternately — A at seed 1, B at seed 1,
// A at seed 2, ... — and both reports sit under the same waves of host
// noise.
func runAll(seed uint64, seconds, scale float64, runs int, trace bool, out string) (bool, error) {
	rep := report{Schema: reportSchema, Host: readHost(), Seconds: seconds, Scale: scale, Workloads: map[string]*workloadReport{}}
	if out != "" {
		prev, err := loadReport(out)
		switch {
		case err == nil && (prev.Seconds != seconds || prev.Scale != scale):
			return false, fmt.Errorf("%s was run with other settings (%gs scale %g); not appending", out, prev.Seconds, prev.Scale)
		case err == nil:
			rep.Workloads = prev.Workloads
		case !errors.Is(err, fs.ErrNotExist):
			return false, err
		}
	}
	fmt.Printf("host: %d CPUs, GOMAXPROCS %d, %s %s, kernel %s, commit %s\n",
		rep.Host.CPUs, rep.Host.GoMaxProcs, rep.Host.GoVersion, rep.Host.OSArch, rep.Host.Kernel, rep.Host.Commit)
	ok := true
	for _, w := range workloads {
		wr := rep.Workloads[w.Name]
		if wr == nil {
			wr = &workloadReport{EndToEnd: map[string][]float64{}}
			rep.Workloads[w.Name] = wr
		}
		if trace && wr.PerLayer == nil {
			wr.PerLayer = map[string][]float64{}
		}
		for i := 0; i < runs; i++ {
			s := seed + uint64(i)
			wr.Seeds = append(wr.Seeds, s)
			modes := []bool{false}
			if trace {
				modes = append(modes, true)
			}
			for _, tr := range modes {
				fmt.Printf("\n=== %s seed %d trace %v ===\n", w.Name, s, tr)
				res, err := runChild(w.Name, s, seconds, scale, tr)
				if err != nil {
					return false, err
				}
				wr.Attempted += res.Attempted
				wr.Failed += res.Failed
				wr.Failures = append(wr.Failures, res.Failures...)
				into := wr.EndToEnd
				if tr {
					into = wr.PerLayer
				}
				for name, v := range res.Metrics {
					into[name] = append(into[name], v)
				}
			}
		}
		if wr.Failed > 0 {
			ok = false
		}
	}

	fmt.Printf("\n=== summary: median over the report's runs per workload (spread = IQR / median) ===\n")
	for _, w := range workloads {
		wr := rep.Workloads[w.Name]
		fmt.Printf("%s: failed_share %d/%d\n", w.Name, wr.Failed, wr.Attempted)
		for _, m := range endToEnd {
			vs := wr.EndToEnd[m.Name]
			fmt.Printf("  %-14s %14.6g %-4s n=%d spread %5.1f%%  bound %2.0f%%\n", m.Name, median(vs), m.Unit, len(vs), 100*spread(vs), 100*m.Bound)
		}
	}
	if out != "" {
		if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
			return false, err
		}
		if err := writeJSON(out, rep); err != nil {
			return false, err
		}
		fmt.Printf("report written to %s\n", out)
	}
	return ok, nil
}
