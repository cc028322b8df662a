package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procSample is a whole-process reading of the counters the
// per-op cost metrics are deltas of.
type procSample struct {
	CPU        time.Duration // user + system
	Mallocs    uint64
	TotalAlloc uint64 // bytes
	Syscalls   uint64 // read + write syscalls (syscr + syscw)
}

// ownCPU is this process's user + system CPU time so far.
func ownCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// readProc samples CPU time, heap allocation totals and read/write
// syscall counts of this process.
func readProc() (procSample, error) {
	cpu, err := ownCPU()
	if err != nil {
		return procSample{}, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	sc, err := readSyscalls()
	if err != nil {
		return procSample{}, err
	}
	return procSample{
		CPU:        cpu,
		Mallocs:    ms.Mallocs,
		TotalAlloc: ms.TotalAlloc,
		Syscalls:   sc,
	}, nil
}

// sub returns the counter growth from before to s.
func (s procSample) sub(before procSample) procSample {
	return procSample{
		CPU:        s.CPU - before.CPU,
		Mallocs:    s.Mallocs - before.Mallocs,
		TotalAlloc: s.TotalAlloc - before.TotalAlloc,
		Syscalls:   s.Syscalls - before.Syscalls,
	}
}

// readSyscalls returns syscr + syscw from /proc/self/io.
func readSyscalls() (uint64, error) {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return 0, fmt.Errorf("syscall counters: %w", err)
	}
	defer f.Close()
	var total uint64
	var seen int
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok || (k != "syscr" && k != "syscw") {
			continue
		}
		n, err := strconv.ParseUint(strings.TrimSpace(v), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("syscall counters: %s: %w", k, err)
		}
		total += n
		seen++
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("syscall counters: %w", err)
	}
	if seen != 2 {
		return 0, fmt.Errorf("syscall counters: syscr/syscw missing from /proc/self/io")
	}
	return total, nil
}

// resetPeakRSS returns freed heap to the kernel and restarts the
// process's peak-RSS mark (VmHWM) from its current RSS, so the next
// peakRSSMB reads the peak of what ran in between.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak rss: %w", err)
	}
	return nil
}

// peakRSSMB is VmHWM in MiB: the process's peak RSS, or the peak since
// the last resetPeakRSS.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak rss: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak rss: VmHWM missing from /proc/self/status")
}

// fingerprint identifies the machine a result was measured on.
// Absolute times are comparable only between equal fingerprints.
type fingerprint struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
}

func machineFingerprint() fingerprint {
	fp := fingerprint{
		CPUModel:   "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     "unknown",
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp.Kernel = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return fp
}
