package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// hostInfo fingerprints the machine a record was measured on. Records
// whose HostID differs come from different hosts and must not be compared.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	HostID     string `json:"host_id"`
}

func fingerprint() hostInfo {
	h := hostInfo{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     "unknown",
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s|%d|%d|%s|%s", h.CPU, h.NProc, h.GOMAXPROCS, h.GoVersion, h.Kernel)))
	h.HostID = hex.EncodeToString(sum[:6])
	return h
}

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

// resetPeakRSS sets the process's resident-set high-water mark back to its
// current resident set.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok || k != "VmHWM" {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("VmHWM %q: %w", v, err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// cpuTicks reads the machine-wide CPU time counters from /proc/stat: the
// total over every state, and the time stolen by the hypervisor for other
// guests. Stolen time slows every timed metric without showing in any of
// them, so records carry it.
func cpuTicks() (total, steal uint64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, fmt.Errorf("/proc/stat: unexpected first line %q", line)
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("/proc/stat: %w", err)
		}
		// guest and guest_nice (fields 9 and 10) are already in user time.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal, nil
}

// stealMeter is a reading of the CPU time counters to measure steal from.
type stealMeter struct{ total, steal uint64 }

func startSteal() stealMeter {
	t, s, _ := cpuTicks()
	return stealMeter{t, s}
}

// pct is the stolen share of CPU time since start, in percent; -1 when the
// counters are unavailable.
func (m stealMeter) pct() float64 {
	t, s, err := cpuTicks()
	if err != nil || t <= m.total {
		return -1
	}
	return 100 * float64(s-m.steal) / float64(t-m.total)
}
