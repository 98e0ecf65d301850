// Offline coordinator-image inspection for romulus-recover's -coord mode and
// the crash campaigns: decode the two-phase record's state (is a batch in
// doubt?), its staged ops, and the placement record with any migration
// journal — without opening engines or mutating anything.
package shard

import (
	"encoding/binary"

	"repro/internal/migrate"
)

// PlacementReport is the decoded placement record of a coordinator image.
type PlacementReport struct {
	NumSlots  int    `json:"slots"`
	NumShards int    `json:"shards"`
	Version   uint64 `json:"version"`
	// SlotsPerShard counts owned slots by shard index.
	SlotsPerShard []int           `json:"slots_per_shard"`
	Journal       migrate.Journal `json:"journal"`
}

// CoordReport is an offline dump of a coordinator log image: the 2PC
// record's disposition plus the placement record (when present).
type CoordReport struct {
	// Formatted reports a valid magic + header. False means a fresh or
	// mid-format image: nothing was ever prepared, nothing to resolve.
	Formatted bool `json:"formatted"`
	// State is the state word's tag: "free", "prepared", or "garbage".
	State string `json:"state,omitempty"`
	// BatchID is the id named by the state word.
	BatchID uint64 `json:"batch_id,omitempty"`
	// InDoubt means a prepared batch would be rolled forward at reopen.
	InDoubt bool `json:"in_doubt"`
	// PayloadOps counts the staged batch's operations; OpsPerShard splits
	// the count by destination shard. Only meaningful when InDoubt (the
	// payload area otherwise holds a retired or abandoned record).
	PayloadOps   int         `json:"payload_ops,omitempty"`
	OpsPerShard  map[int]int `json:"ops_per_shard,omitempty"`
	PayloadError string      `json:"payload_error,omitempty"`
	// Placement is the decoded placement record; nil when the image
	// predates placement routing (or is too small to hold the record).
	Placement *PlacementReport `json:"placement,omitempty"`
}

// PlacementJournalPhase reports the migration journal's phase in the
// decoded placement record (PhaseNone when no placement record decoded).
func (rep CoordReport) PlacementJournalPhase() migrate.Phase {
	if rep.Placement == nil {
		return migrate.PhaseNone
	}
	return rep.Placement.Journal.Phase
}

// InspectCoordImage decodes a captured or saved coordinator image with the
// decoders recovery uses. It never fails: damage is reported in the fields
// rather than refused, so the operator sees whatever survives.
func InspectCoordImage(img []byte) CoordReport {
	var rep CoordReport
	if len(img) >= placementReserve {
		if pl := migrate.DecodeRecordBytes(img[len(img)-placementReserve:]); pl != nil {
			rep.Placement = &PlacementReport{
				NumSlots:      pl.NumSlots,
				NumShards:     pl.NumShards,
				Version:       pl.Version,
				SlotsPerShard: pl.Counts(),
				Journal:       pl.Journal,
			}
		}
	}
	le := binary.LittleEndian
	if len(img) < cPayloadBase || le.Uint64(img[cOffMagic:]) != cMagic ||
		le.Uint64(img[cOffVersion:]) != cVersion ||
		le.Uint64(img[cOffHeadSum:]) != cMagic^cVersion^cHeadSalt {
		return rep
	}
	rep.Formatted = true
	word := le.Uint64(img[cOffState:])
	rep.BatchID = word & cIDMask
	switch word & cTagMask {
	case cTagFree:
		rep.State = "free"
		return rep
	case cTagPrepared:
		rep.State = "prepared"
		rep.InDoubt = true
	default:
		rep.State = "garbage"
		return rep
	}
	if rep.Placement == nil {
		rep.PayloadError = "no placement record: shard count unknown"
		return rep
	}
	meta := [3]uint64{le.Uint64(img[cOffBatchID:]), le.Uint64(img[cOffPayLen:]), le.Uint64(img[cOffPaySum:])}
	groups, err := decodePrepared(rep.BatchID, meta, len(img), func(n int) []byte {
		return img[cPayloadBase : cPayloadBase+n]
	}, rep.Placement.NumShards)
	if err != nil {
		rep.PayloadError = err.Error()
		return rep
	}
	rep.OpsPerShard = make(map[int]int)
	for sh, g := range groups {
		if g != nil {
			rep.OpsPerShard[sh] = g.Len()
			rep.PayloadOps += g.Len()
		}
	}
	return rep
}
