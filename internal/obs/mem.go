package obs

import (
	"os"
	"strconv"
	"strings"
)

// PeakRSSBytes returns the process's peak resident set size (VmHWM) in
// bytes, or 0 when the platform does not expose it (/proc is Linux-only).
// Unlike heap metrics it includes stacks and the runtime itself — it is the
// number an operator's job scheduler enforces.
func PeakRSSBytes() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			return 0
		}
		kb, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb * 1024
	}
	return 0
}
