// Package fixture is the module TestCallerCheckFixture scans: its root
// re-exports lib.Thing, as romulus.go re-exports the engine's types.
package fixture

import "fixture/internal/lib"

// Thing is lib.Thing, re-exported.
type Thing = lib.Thing

// Use calls lib.Used and lib.NewRecord.
func Use() any {
	lib.Used()
	return lib.NewRecord()
}
