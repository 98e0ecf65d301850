package core

import (
	"fmt"
	"io"
	"os"

	"repro/internal/pmem"
	"repro/internal/ptm"
)

// Snapshot writes a consistent, restorable image of the persistent state
// to w, without blocking readers for the duration of the write.
//
// This is a capability that falls out of the twin-copy design for free:
// immediately after replication, the back region is a byte-exact
// consistent snapshot of the committed state. Snapshot enqueues an empty
// update through the writer path (so it serializes after all earlier
// updates and their replication), then — still holding the writer lock —
// serializes the header and back region. The resulting image is accepted
// by Open/OpenFile and by pmem.FromImage.
//
// Update transactions are blocked while the image is written; read
// transactions are not (RomulusLR readers proceed on main; C-RW-WP
// readers were already drained by the writer path and new ones are only
// blocked as for a normal update). Readers and combined writers are let go
// at a round's durable point, before its replication, but the writer lock
// is held through replication, so the snapshot's transaction begins only
// after every earlier round's back copy is complete.
func (e *Engine) Snapshot(w io.Writer) error {
	var writeErr error
	err := e.Update(func(tx ptm.Tx) error {
		// Running inside the writer path: replication of every earlier
		// transaction has completed (it finishes under the writer lock), so
		// back == main == committed state.
		// An empty transaction replicates nothing; serialize back framed
		// as both copies of a fresh image.
		writeErr = e.writeImage(w)
		return nil
	})
	if err != nil {
		return err
	}
	return writeErr
}

// writeImage serializes [head][back][back] with the state forced to IDL,
// producing a quiescent image.
func (e *Engine) writeImage(w io.Writer) error {
	head := make([]byte, headSize)
	e.dev.LoadBytes(0, head)
	// Force IDL: the image represents a cleanly shut down instance.
	putLE64(head[offState:], stateIDL)
	if _, err := w.Write(head); err != nil {
		return fmt.Errorf("core: snapshot header: %w", err)
	}
	back := e.dev.Bytes(e.backBase, e.regionSize)
	for copies := 0; copies < 2; copies++ {
		if _, err := w.Write(back); err != nil {
			return fmt.Errorf("core: snapshot region: %w", err)
		}
	}
	return nil
}

func putLE64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// SnapshotToFile writes a Snapshot image to path atomically (temp file and
// rename).
func (e *Engine) SnapshotToFile(path string) error {
	tmp, err := os.CreateTemp(dirOf(path), ".romulus-snap-*")
	if err != nil {
		return fmt.Errorf("core: snapshot: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := e.Snapshot(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

func dirOf(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[:i]
		}
	}
	return "."
}

// RestoreSnapshot opens an engine over a snapshot image previously written
// by Snapshot/SnapshotToFile.
func RestoreSnapshot(r io.Reader, cfg Config) (*Engine, error) {
	img, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: restore: %w", err)
	}
	if len(img) == 0 || len(img)%pmem.LineSize != 0 {
		return nil, fmt.Errorf("core: restore: image size %d is not a positive multiple of %d", len(img), pmem.LineSize)
	}
	return Open(pmem.FromImage(img, cfg.Model), cfg)
}
