// Command perfbench is the repository's benchmark: it drives seeded hub
// fleets through the public API (chain, whisper, store, hub, federation)
// in a closed loop of 64 sessions in flight, checks every session's
// outcome, and prints end-to-end metrics (tracing off) or per-layer
// metrics (a separate traced run with a CPU profile folded by module).
//
//	bash perfbench/run.sh --workload auto-persession --seed 1 --seconds 36 --trace 0
//
// The last line of standard output is the result object; the line before
// it is the full record with the host facts. A human-readable summary
// goes to standard error. The exit code is non-zero when the run could
// not complete or a session's outcome broke the protocol.
package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"onoffchain/internal/hub"
	"onoffchain/internal/telemetry"
)

// fleetsPerRun is how many fleets a tracing-off run builds, one after
// another: each is set up, measured for an equal share of the run, checked
// and stopped, and every end-to-end metric is the median over the fleets.
// A stall that hits one fleet (a delayed block or epoch holds back a whole
// wave of sessions) then moves no reported number, and separate fleets
// sample the fleet-to-fleet variation (which tower is primary for which
// window) within one run.
const fleetsPerRun = 3

type options struct {
	workload *workload
	seed     uint64
	dur      time.Duration
	trace    bool
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's verdict line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Uint64("seed", 1, "workload seed: scenario order and lying sessions")
		seconds = flag.Int("seconds", 36, "measured seconds per run")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	)
	flag.Parse()
	w, err := lookupWorkload(*name)
	if err == nil && (*seconds < 1 || *trace < 0 || *trace > 1) {
		err = errors.New("need --seconds >= 1 and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	opts := options{workload: w, seed: *seed, dur: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	res, verr := run(opts)
	if res == nil {
		fmt.Fprintln(os.Stderr, "perfbench:", verr)
		os.Exit(1)
	}
	record := map[string]any{
		"workload": w.name, "seed": opts.seed, "seconds": *seconds, "trace": *trace,
		"host": hostFacts(), "result": res,
	}
	if verr != nil {
		record["violation"] = verr.Error()
	}
	defs := endToEnd
	if opts.trace {
		defs = perLayer
	}
	summarize(os.Stderr, w.name, defs, res)
	out := bufio.NewWriter(os.Stdout)
	enc := json.NewEncoder(out)
	err = enc.Encode(record)
	if err == nil {
		err = enc.Encode(res)
	}
	if err == nil {
		err = out.Flush()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if verr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: correctness violation:", verr)
		os.Exit(1)
	}
}

// run executes one benchmark run. A nil result means the run could not
// complete; a non-nil result with an error is a correctness violation
// (the result then reads correct=false).
func run(o options) (*result, error) {
	specs := o.workload.specs(o.seed, maxSessions(o.dur))
	if !o.trace {
		return runEndToEnd(o, specs)
	}
	return runTraced(o, specs)
}

// maxSessions bounds the generated stream far above any rate a fleet
// reaches, so the closed loop never runs out before its deadline.
func maxSessions(dur time.Duration) int {
	return inFlight + 1000*int(dur.Seconds()+1)
}

func runEndToEnd(o options, specs []*hub.Spec) (*result, error) {
	perFleet := map[string][]float64{}
	attempted, failed := 0, 0
	var verr error
	for i := 0; i < fleetsPerRun; i++ {
		start := time.Now()
		f, err := newFleet(o.workload, false)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setup := time.Since(start).Seconds()
		p, err := f.drive(specs, o.dur/fleetsPerRun)
		if err != nil {
			f.stop()
			return nil, err
		}
		nfailed, err := f.verify(p.sessions)
		f.stop()
		if verr == nil {
			verr = err
		}
		attempted += len(p.sessions)
		failed += nfailed
		var lat, disputes []float64
		for _, s := range p.sessions {
			lat = append(lat, s.latency().Seconds())
			if s.lie {
				disputes = append(disputes, s.latency().Seconds())
			}
		}
		n := float64(len(p.sessions))
		for k, v := range map[string]float64{
			"sessions_per_s":    sessionsPerSec(p),
			"session_p50_s":     quantile(lat, 0.5),
			"session_p99_s":     quantile(lat, 0.99),
			"dispute_p50_s":     quantile(disputes, 0.5),
			"dispute_mean_s":    mean(disputes),
			"cpu_s_per_session": p.cpu.Seconds() / n,
			"gas_per_session":   float64(p.gas) / n,
			"peak_rss_mb":       peakRSS(),
			"setup_s":           setup,
		} {
			perFleet[k] = append(perFleet[k], v)
		}
	}
	m := map[string]float64{}
	for k, vs := range perFleet {
		m[k] = quantile(vs, 0.5)
	}
	return newResult(endToEnd, m, attempted, failed, verr), verr
}

// runTraced splits the measured time between an untraced fleet (the
// baseline rate for trace.overhead_frac) and a traced one with the CPU
// profiler running, whose phase the layer metrics describe.
func runTraced(o options, specs []*hub.Spec) (*result, error) {
	half := o.dur / 2
	base, err := newFleet(o.workload, false)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	bp, err := base.drive(specs, half)
	if err != nil {
		base.stop()
		return nil, err
	}
	baseFailed, baseErr := base.verify(bp.sessions)
	base.stop()

	f, err := newFleet(o.workload, true)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer f.stop()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	p, err := f.drive(specs, o.dur-half)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	failed, verr := f.verify(p.sessions)
	if verr == nil {
		verr = baseErr
	}
	m, err := layerMetrics(f, p, prof.Bytes(), sessionsPerSec(bp))
	if err != nil {
		return nil, err
	}
	return newResult(perLayer, m, len(bp.sessions)+len(p.sessions), baseFailed+failed, verr), verr
}

// sessionsPerSec is the phase's rate: every measured session over the
// time from the first Submit to the last Done. Counting whole sessions to
// the end of the drain, rather than those done by the deadline, matters
// because fleets that wait on shared timers (batch blocks, epochs, tower
// elections) complete their 64 sessions in waves.
func sessionsPerSec(p *phase) float64 {
	return float64(len(p.sessions)) / p.end.Sub(p.start).Seconds()
}

func newResult(defs []metricDef, m map[string]float64, attempted, failed int, verr error) *result {
	res := &result{Correct: verr == nil, Attempted: attempted, Failed: failed, Metrics: map[string]value{}}
	for _, d := range defs {
		res.Metrics[d.name] = value{Value: m[d.name], Unit: d.unit}
	}
	return res
}

// summarize prints the result for a reader: each metric with its unit
// and, for a layer metric, the end-to-end metric it should move and where.
func summarize(w io.Writer, workload string, defs []metricDef, res *result) {
	fmt.Fprintf(w, "%s: correct=%t attempted=%d failed=%d\n", workload, res.Correct, res.Attempted, res.Failed)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-36s %14.6g %-6s", d.name, res.Metrics[d.name].Value, d.unit)
		if d.moves != "" {
			fmt.Fprintf(w, " moves %s on %s", d.moves, d.where)
		}
		fmt.Fprintln(w)
	}
}

// hostFacts makes a record comparable across hosts and revisions.
func hostFacts() map[string]any {
	return map[string]any{
		"cores":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"git_rev":    revision(),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// revision is the git revision, or outside a git checkout a fingerprint
// of the Go sources under the working directory ("src:" + sha256 prefix).
func revision() string {
	if rev := telemetry.GitRev(); rev != "unknown" {
		return rev
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir // .git, .bench_build
		case d.IsDir() || !strings.HasSuffix(path, ".go") && d.Name() != "go.mod":
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", path, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "src:" + hex.EncodeToString(h.Sum(nil))[:12]
}
