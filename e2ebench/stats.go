package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"wavesched/internal/lp"
	"wavesched/internal/telemetry"
)

// percentile returns the q-th percentile (0–100) of the samples, with
// linear interpolation between the closest ranks. It returns NaN for no
// samples and does not modify its argument.
func percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	pos := q / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// beyond reports how many of n samples lie above the q-th percentile.
func beyond(n int, q float64) int { return int(math.Floor(float64(n)*(100-q)/100 + 1e-9)) }

func median(samples []float64) float64 { return percentile(samples, 50) }

// registry reads instruments of the default telemetry registry. Looking
// an instrument up by name returns the one its package registered.
var registry = telemetry.Default()

func counter(name string) float64 { return float64(registry.Counter(name, "").Value()) }

func histCount(name string) float64 { return float64(registry.Histogram(name, "", nil).Count()) }

func histSum(name string) float64 { return registry.Histogram(name, "", nil).Sum() }

// lpSolves sums the per-status solve counters.
func lpSolves() float64 {
	total := 0.0
	for _, st := range []lp.Status{lp.Optimal, lp.Infeasible, lp.Unbounded, lp.IterLimit, lp.Numerical, lp.TimeLimit} {
		total += float64(registry.CounterWith("lp_solves_total", "", map[string]string{"status": st.String()}).Value())
	}
	return total
}

// instruments is a snapshot of every registry value the benchmark
// reports; per-layer figures are differences of two snapshots.
type instruments map[string]float64

func snapshot() instruments {
	return instruments{
		"http_requests":     histCount("server_http_request_seconds"),
		"http_seconds":      histSum("server_http_request_seconds"),
		"jobs_submitted":    counter("server_jobs_submitted_total"),
		"intake_batches":    counter("admission_batches_total"),
		"fsyncs":            histCount("wal_fsync_seconds"),
		"fsync_seconds":     histSum("wal_fsync_seconds"),
		"degraded_epochs":   counter("controller_epochs_degraded_total"),
		"stage1_seconds":    histSum("schedule_stage1_seconds"),
		"stage2_seconds":    histSum("schedule_stage2_seconds"),
		"alpha_retries":     counter("schedule_stage2_alpha_retries_total"),
		"components":        counter("schedule_components_total"),
		"pathcache_hits":    counter("schedule_pathcache_hits_total"),
		"pathcache_misses":  counter("schedule_pathcache_misses_total"),
		"lpdar_adjustments": counter("lpdar_adjustments_total"),
		"ret_search_steps":  counter("ret_search_steps_total"),
		"ret_delta_rounds":  counter("ret_delta_rounds_total"),
		"lp_solves":         lpSolves(),
		"lp_solve_seconds":  histSum("lp_solve_seconds"),
		"lp_pivots":         counter("lp_pivots_total"),
		"lp_phase1_pivots":  counter("lp_phase1_pivots_total"),
		"lp_warm_hits":      counter("lp_warmstart_hits_total"),
		"lp_warm_fallbacks": counter("lp_warmstart_fallbacks_total"),
		"lp_probes_pruned":  counter("lp_probe_pruned_total"),
		"lp_timeouts":       counter("lp_solve_timeouts_total"),
	}
}

func (a instruments) delta(b instruments) instruments {
	d := make(instruments, len(a))
	for k, v := range b {
		d[k] = v - a[k]
	}
	return d
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// peakRSSMB reads the process's peak resident set size (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// host is the fingerprint recorded with every result.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	WALFS      string `json:"wal_fs"`
}

func fingerprint(walDir string) host {
	return host{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPUModel: cpuModel(), WALFS: fsType(walDir),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xef53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x2fc12fc1:
		return "zfs"
	case 0x65735546:
		return "fuse"
	case 0x6969:
		return "nfs"
	}
	return "0x" + strconv.FormatUint(uint64(st.Type), 16)
}
