package server

import (
	"crypto/sha256"
	"encoding/hex"
)

// digest is a payload's SHA-256 sum. This file is the one place in the
// package that runs SHA-256 (make lint fails on sha256. anywhere else):
// a payload is hashed once per crossing — a build, a peer fill, a store
// write, a store load — and everything derived from its content reads
// that one sum: the ETag, the record's stored hex digest and its
// content-addressed file name.
type digest [sha256.Size]byte

// digestOf hashes b.
func digestOf(b []byte) digest { return sha256.Sum256(b) }

// hex is the full digest as lowercase hex, the form a store record's
// header carries.
func (d digest) hex() string { return hex.EncodeToString(d[:]) }

// etag derives the strong content-addressed validator: the quoted hex of
// the digest's first 8 bytes.
func (d digest) etag() string { return `"` + hex.EncodeToString(d[:8]) + `"` }
