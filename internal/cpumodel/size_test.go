package cpumodel

import (
	"testing"
	"unsafe"
)

// TestThreadSizeClass pins Thread to Go's 112-byte size class. An
// overloaded machine holds about 12,000 threads at once, and every
// spawn that misses the free list allocates one.
func TestThreadSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(Thread{}); got > 112 {
		t.Fatalf("Thread is %d bytes: it has left the 112-byte size class for the 128-byte one, "+
			"so every thread allocation grows by 16 bytes", got)
	}
}
