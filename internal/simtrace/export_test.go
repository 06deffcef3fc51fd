package simtrace

// GeneralElements validates data as ValidateChrome does and returns
// how many traceEvents elements the general scanner read, the ones
// not in the compact layout WriteChrome writes.
func GeneralElements(data []byte) (int, error) {
	v := newValidator(data, false)
	err := v.file()
	return v.general, err
}
