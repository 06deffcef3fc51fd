package diskmodel

import (
	"testing"
	"unsafe"
)

// TestRequestSizeClass pins Request to Go's 64-byte size class: every
// pooled index read, log write and bully or HDFS request is one.
func TestRequestSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(Request{}); got > 64 {
		t.Fatalf("Request is %d bytes: it has left the 64-byte size class for the 80-byte one, "+
			"so every request allocation grows by 16 bytes", got)
	}
}
