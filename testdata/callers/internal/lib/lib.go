// Package lib declares one name of each kind the caller check rules on.
package lib

import "fmt"

// Used is called by the root package.
func Used() {}

func Unused() {} // no caller: the only name the check reports

// Seam has no caller either; the fixture's allowlist excuses it.
func Seam() {}

// Record reaches the root package through NewRecord's signature.
type Record struct {
	// Count has a json tag: encoding/json reads it.
	Count int `json:"count"`
}

// NewRecord is called by the root package.
func NewRecord() Record { return Record{} }

// String satisfies fmt.Stringer.
func (r Record) String() string { return fmt.Sprint(r.Count) }

// Thing is re-exported by the root package.
type Thing struct{}

// Method is public API through the re-export, with no caller.
func (t *Thing) Method() {}
