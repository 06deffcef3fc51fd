package indexserve

import (
	"testing"
	"unsafe"
)

// TestRecordSizeClasses pins the pooled query record and its matcher
// slots to their Go size classes. An overloaded server holds about
// 1,800 query records and 20,000 matcher slots at once.
func TestRecordSizeClasses(t *testing.T) {
	for _, c := range []struct {
		name        string
		size, class uintptr
		next        uintptr
	}{
		{"query", unsafe.Sizeof(query{}), 176, 192},
		{"qworker", unsafe.Sizeof(qworker{}), 64, 80},
	} {
		if c.size > c.class {
			t.Errorf("%s is %d bytes: it has left the %d-byte size class for the %d-byte one, "+
				"so every %s allocation grows by %d bytes", c.name, c.size, c.class, c.next, c.name, c.next-c.class)
		}
	}
}
