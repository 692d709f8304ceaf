package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// clockTicksPerSec is USER_HZ, the unit of the CPU times in /proc. It is
// 100 on every Linux architecture Go supports.
const clockTicksPerSec = 100

// parseProcStat returns a process's user+system CPU seconds from the text
// of /proc/<pid>/stat. The command name may contain spaces and
// parentheses, so fields are counted from the last ')'.
func parseProcStat(text string) (cpuSeconds float64, err error) {
	end := strings.LastIndexByte(text, ')')
	if end < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", text)
	}
	fields := strings.Fields(text[end+1:])
	// After the command: state is field 0, utime field 11, stime field 12.
	if len(fields) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command, want at least 13", len(fields))
	}
	utime, err := strconv.ParseUint(fields[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	stime, err := strconv.ParseUint(fields[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return float64(utime+stime) / clockTicksPerSec, nil
}

// parseProcStatus returns resident and peak resident memory in MiB from the
// text of /proc/<pid>/status.
func parseProcStatus(text string) (rssMB, peakMB float64, err error) {
	found := 0
	for _, line := range strings.Split(text, "\n") {
		var dst *float64
		switch {
		case strings.HasPrefix(line, "VmRSS:"):
			dst = &rssMB
		case strings.HasPrefix(line, "VmHWM:"):
			dst = &peakMB
		default:
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 || fields[2] != "kB" {
			return 0, 0, fmt.Errorf("proc status: unexpected line %q", line)
		}
		kb, perr := strconv.ParseFloat(fields[1], 64)
		if perr != nil {
			return 0, 0, fmt.Errorf("proc status: %w", perr)
		}
		*dst = kb / 1024
		found++
	}
	if found != 2 {
		return 0, 0, fmt.Errorf("proc status: VmRSS/VmHWM not both present")
	}
	return rssMB, peakMB, nil
}

// hostCPU is one reading of the "cpu" line of /proc/stat, in ticks.
type hostCPU struct{ total, steal float64 }

func parseHostStat(text string) (hostCPU, error) {
	for _, line := range strings.Split(text, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 9 || fields[0] != "cpu" {
			continue
		}
		var h hostCPU
		// user nice system idle iowait irq softirq steal; guest time is
		// already inside user, so the first eight fields are the total.
		for i, f := range fields[1:9] {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return hostCPU{}, fmt.Errorf("host stat: %w", err)
			}
			h.total += v
			if i == 7 {
				h.steal = v
			}
		}
		return h, nil
	}
	return hostCPU{}, fmt.Errorf("host stat: no cpu line")
}

// stealShare is the share of CPU time the hypervisor withheld between two
// readings.
func stealShare(before, after hostCPU) float64 {
	return ratio(after.steal-before.steal, after.total-before.total)
}

func readProcCPU(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStat(string(data))
}

func readProcMem(pid int) (rssMB, peakMB float64, err error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, 0, err
	}
	return parseProcStatus(string(data))
}

func readHostCPU() (hostCPU, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}, err
	}
	return parseHostStat(string(data))
}
