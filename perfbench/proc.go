package main

import (
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"unsafe"
)

// procSample is one reading of a process's CPU time and context switches,
// summed over its threads.
type procSample struct {
	cpuNs int64 // on-CPU time from /proc/<pid>/task/*/schedstat (ns resolution)
	ctxsw int64 // voluntary + involuntary context switches
}

// sampleProc reads pid's per-thread counters. schedstat counts in
// nanoseconds, unlike /proc/<pid>/stat's 10 ms ticks, so short windows of a
// lightly loaded process still measure. A thread that exits inside the
// window takes its counts with it; the Go runtime rarely retires threads.
func sampleProc(pid int) (procSample, error) {
	dirs, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*", pid))
	if err != nil || len(dirs) == 0 {
		return procSample{}, fmt.Errorf("no threads under /proc/%d/task", pid)
	}
	var s procSample
	for _, d := range dirs {
		if f := strings.Fields(readFile(d + "/schedstat")); len(f) > 0 {
			ns, _ := strconv.ParseInt(f[0], 10, 64)
			s.cpuNs += ns
		}
		for _, line := range strings.Split(readFile(d+"/status"), "\n") {
			if strings.HasSuffix(strings.SplitN(line, ":", 2)[0], "ctxt_switches") {
				n, _ := strconv.ParseInt(strings.TrimSpace(strings.SplitN(line, ":", 2)[1]), 10, 64)
				s.ctxsw += n
			}
		}
	}
	return s, nil
}

// peakRSSMB reads VmHWM, the peak resident set, of pid in MB (MiB).
func peakRSSMB(pid int) float64 {
	for _, line := range strings.Split(readFile(fmt.Sprintf("/proc/%d/status", pid)), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// selfCPUNs is this process's user+system CPU time in ns (getrusage).
func selfCPUNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// hostTicks reads the machine-wide CPU time from /proc/stat, in clock
// ticks: the hypervisor's steal and the total of every state.
func hostTicks() (steal, total int64) {
	for _, line := range strings.Split(readFile("/proc/stat"), "\n") {
		f := strings.Fields(line)
		if len(f) < 9 || f[0] != "cpu" {
			continue
		}
		for i, v := range f[1:] {
			n, _ := strconv.ParseInt(v, 10, 64)
			total += n
			if i == 7 {
				steal = n
			}
		}
		return steal, total
	}
	return 0, 0
}

// stealShares is each sub-window's share of CPU time stolen by the
// hypervisor, from hostTicks readings at the nChunks+1 edges.
func stealShares(steal, total []int64) []float64 {
	out := make([]float64, nChunks)
	for i := range out {
		if dt := total[i+1] - total[i]; dt > 0 {
			out[i] = float64(steal[i+1]-steal[i]) / float64(dt)
		}
	}
	return out
}

// udpRcvbufErrors reads the kernel's UDP RcvbufErrors counter for this
// network namespace.
func udpRcvbufErrors() (int64, error) {
	lines := strings.Split(readFile("/proc/net/snmp"), "\n")
	for i := 0; i+1 < len(lines); i++ {
		if !strings.HasPrefix(lines[i], "Udp:") || !strings.HasPrefix(lines[i+1], "Udp:") {
			continue
		}
		keys, vals := strings.Fields(lines[i]), strings.Fields(lines[i+1])
		for j, k := range keys {
			if k == "RcvbufErrors" && j < len(vals) {
				return strconv.ParseInt(vals[j], 10, 64)
			}
		}
	}
	return 0, fmt.Errorf("no Udp RcvbufErrors in /proc/net/snmp")
}

// cpuPair returns the first two CPUs in this thread's affinity mask; ok is
// false when fewer than two are allowed.
func cpuPair() (first, second int, ok bool) {
	var mask [16]uint64 // room for 1024 CPUs
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0,
		uintptr(len(mask)*8), uintptr(unsafe.Pointer(&mask[0])))
	if e != 0 {
		return 0, 0, false
	}
	var cpus []int
	for c := 0; c < len(mask)*64 && len(cpus) < 2; c++ {
		if mask[c/64]&(1<<(uint(c)%64)) != 0 {
			cpus = append(cpus, c)
		}
	}
	if len(cpus) < 2 {
		return 0, 0, false
	}
	return cpus[0], cpus[1], true
}

// setAffinity pins thread tid (0 = the calling thread) to the given CPUs.
func setAffinity(tid int, cpus ...int) error {
	var mask [16]uint64 // room for 1024 CPUs
	for _, c := range cpus {
		mask[c/64] |= 1 << (uint(c) % 64)
	}
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid),
		uintptr(len(mask)*8), uintptr(unsafe.Pointer(&mask[0])))
	if e != 0 {
		return e
	}
	return nil
}

// pinProcess pins every current thread of this process to cpu; threads the
// runtime starts later inherit the mask from the thread that creates them.
func pinProcess(cpu int) error {
	dirs, err := filepath.Glob("/proc/self/task/*")
	if err != nil {
		return err
	}
	for _, d := range dirs {
		tid, err := strconv.Atoi(filepath.Base(d))
		if err != nil {
			continue
		}
		if err := setAffinity(tid, cpu); err != nil {
			return fmt.Errorf("pin thread %d to CPU %d: %w", tid, cpu, err)
		}
	}
	return nil
}
