package simtrace

// ReadsCompact validates data on ValidateChrome's one-pass reader alone
// and reports whether that reader took the whole file, which it does
// only when data is in the layout WriteChrome writes.
func ReadsCompact(data []byte) (bool, error) { return readCompact(data) }

// EscapeInputs are strings whose export needs escapes, keyed by what
// they exercise; TestWriteChromeEscapesAsJSON round-trips them.
var EscapeInputs = escapeInputs
