package classfile

import "unsafe"

// view returns b's bytes as a string without copying them. It is the one
// use of package unsafe outside tests (make lint keeps it so): the
// string is only as immutable as b, so ParseGlobal, its one caller,
// states the contract that makes it so — the parsed data is never
// written again.
func view(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }
