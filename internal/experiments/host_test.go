package experiments

import "testing"

func TestParseCPUInfo(t *testing.T) {
	for _, c := range []struct {
		name, text string
		model      string
		fma, avx2  bool
	}{
		{"x86 with both", "processor\t: 0\nvendor_id\t: GenuineIntel\n" +
			"model name\t: Intel(R) Xeon(R) Processor\nflags\t\t: fpu sse2 fma avx avx2 bmi2\n\n" +
			"processor\t: 1\nmodel name\t: Intel(R) Xeon(R) Processor\nflags\t\t: fpu sse2 fma avx avx2 bmi2\n",
			"Intel(R) Xeon(R) Processor", true, true},
		// fma4 and avx512f are other flags, not fma or avx2.
		{"x86 without", "model name\t: AMD Opteron(tm) Processor 6272\nflags\t\t: fpu sse2 fma4 avx avx512f\n",
			"AMD Opteron(tm) Processor 6272", false, false},
		{"arm64", "processor\t: 0\nBogoMIPS\t: 50.00\nFeatures\t: fp asimd evtstrm crc32\nCPU part\t: 0xd0c\n",
			"", false, false},
		{"empty", "", "", false, false},
	} {
		model, fma, avx2 := parseCPUInfo(c.text)
		if model != c.model || fma != c.fma || avx2 != c.avx2 {
			t.Errorf("%s: got (%q, fma %v, avx2 %v), want (%q, %v, %v)", c.name, model, fma, avx2, c.model, c.fma, c.avx2)
		}
	}
}
