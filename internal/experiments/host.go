package experiments

import (
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
)

// Host describes the machine and build that ran a run's cells, so a
// timing.json says which floating-point path they took: on amd64,
// math.Exp takes a fused multiply-add path when the CPU has FMA, which
// can move a result's last digit.
type Host struct {
	GOARCH string `json:"goarch"`
	// GOAMD64 is the amd64 level the binary was built for (v1 to v4);
	// empty on other architectures.
	GOAMD64 string `json:"goamd64,omitempty"`
	// CPU is /proc/cpuinfo's model name, and FMA and AVX2 say whether
	// its flags list fma and avx2, as lscpu's Flags line would. All
	// three stay empty where there is no /proc/cpuinfo.
	CPU  string `json:"cpu,omitempty"`
	FMA  bool   `json:"fma"`
	AVX2 bool   `json:"avx2"`
}

// HostOf describes the machine and build of the running process.
func HostOf() Host {
	h := Host{GOARCH: runtime.GOARCH}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				h.GOAMD64 = s.Value
			}
		}
	}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		h.CPU, h.FMA, h.AVX2 = parseCPUInfo(string(info))
	}
	return h
}

// parseCPUInfo reads the first model name and the first flags line of
// a /proc/cpuinfo listing; every processor of a machine repeats them.
func parseCPUInfo(text string) (model string, fma, avx2 bool) {
	seenFlags := false
	for _, line := range strings.Split(text, "\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		switch strings.TrimSpace(k) {
		case "model name":
			if model == "" {
				model = strings.TrimSpace(v)
			}
		case "flags":
			if !seenFlags {
				seenFlags = true
				flags := strings.Fields(v)
				fma, avx2 = slices.Contains(flags, "fma"), slices.Contains(flags, "avx2")
			}
		}
		if model != "" && seenFlags {
			break
		}
	}
	return model, fma, avx2
}
