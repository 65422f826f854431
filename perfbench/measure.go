//simlint:allow-file wallclock benchmark harness: wall time here measures the host running the simulator and never feeds simulated state
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// span is one interval of the benchmark's own work around a call into
// a layer: setup, run, each probe, the checks. Spans are kept in
// memory and written out when the benchmark ends.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0: a top-level span
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the benchmark began
	End    float64 `json:"end_s"`
}

// recorder collects spans.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span under parent and returns its id.
func (r *recorder) begin(parent int, name string) int {
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Name: name,
		Start: time.Since(r.t0).Seconds(),
	})
	return len(r.spans)
}

// end closes span id and returns its duration.
func (r *recorder) end(id int) time.Duration {
	s := &r.spans[id-1]
	s.End = time.Since(r.t0).Seconds()
	return time.Duration((s.End - s.Start) * float64(time.Second))
}

// timed runs fn inside a span and returns its duration.
func (r *recorder) timed(parent int, name string, fn func()) time.Duration {
	id := r.begin(parent, name)
	fn()
	return r.end(id)
}

// writeSpans writes the run's spans, with the seed and host they were
// measured on, as one JSON document.
func writeSpans(path, name string, seed uint64, trace int, host hostInfo, rec *recorder) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		return err
	}
	doc := struct {
		Workload string   `json:"workload"`
		Seed     uint64   `json:"seed"`
		Trace    int      `json:"trace"`
		Host     hostInfo `json:"host"`
		Spans    []span   `json:"spans"`
	}{name, seed, trace, host, rec.spans}
	blob, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o666)
}

// hostInfo records what a measurement was taken on.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
}

func (h hostInfo) String() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s",
		h.CPU, h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.Commit)
}

func readHost() hostInfo {
	return hostInfo{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit names the source revision, or "unknown" outside a git
// checkout.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	rev := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil && len(st) > 0 {
		rev += "+dirty"
	}
	return rev
}

// peakRSSMB reports the process's peak resident set in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
