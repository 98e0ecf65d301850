package leveldbsim

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sort"
)

// SST file format:
//
//	[count 8] then count records of [klen 4][vlen 4][key][value],
//	sorted ascending by key.
//
// The reader keeps keys and value offsets in memory (like LevelDB's index
// blocks, coarsened) and reads values from the file on demand.

func writeSST(path string, data map[string]string) error {
	keys := make([]string, 0, len(data))
	for k := range data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("leveldbsim: %w", err)
	}
	w := bufio.NewWriterSize(f, 256<<10)
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(len(keys)))
	if _, err := w.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	var rec [8]byte
	for _, k := range keys {
		v := data[k]
		binary.LittleEndian.PutUint32(rec[0:4], uint32(len(k)))
		binary.LittleEndian.PutUint32(rec[4:8], uint32(len(v)))
		if _, err := w.Write(rec[:]); err != nil {
			f.Close()
			return err
		}
		if _, err := w.WriteString(k); err != nil {
			f.Close()
			return err
		}
		if _, err := w.WriteString(v); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type sstReader struct {
	path string
	f    *os.File
	keys []string
	offs []int64 // value offset in file
	lens []uint32
}

func openSST(path string) (*sstReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("leveldbsim: %w", err)
	}
	br := bufio.NewReaderSize(f, 256<<10)
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		f.Close()
		return nil, fmt.Errorf("leveldbsim: %s: short header", path)
	}
	count := binary.LittleEndian.Uint64(hdr[:])
	r := &sstReader{
		path: path,
		f:    f,
		keys: make([]string, 0, count),
		offs: make([]int64, 0, count),
		lens: make([]uint32, 0, count),
	}
	off := int64(8)
	var rec [8]byte
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			f.Close()
			return nil, fmt.Errorf("leveldbsim: %s: truncated", path)
		}
		klen := binary.LittleEndian.Uint32(rec[0:4])
		vlen := binary.LittleEndian.Uint32(rec[4:8])
		key := make([]byte, klen)
		if _, err := io.ReadFull(br, key); err != nil {
			f.Close()
			return nil, fmt.Errorf("leveldbsim: %s: truncated key", path)
		}
		off += 8 + int64(klen)
		r.keys = append(r.keys, string(key))
		r.offs = append(r.offs, off)
		r.lens = append(r.lens, vlen)
		if _, err := br.Discard(int(vlen)); err != nil {
			f.Close()
			return nil, fmt.Errorf("leveldbsim: %s: truncated value", path)
		}
		off += int64(vlen)
	}
	return r, nil
}

// loadInto merges the run's contents into dst (newer callers overwrite by
// calling on older runs first).
func (r *sstReader) loadInto(dst map[string]string) error {
	for i, k := range r.keys {
		val := make([]byte, r.lens[i])
		if _, err := r.f.ReadAt(val, r.offs[i]); err != nil {
			return fmt.Errorf("leveldbsim: %s: %w", r.path, err)
		}
		dst[k] = string(val)
	}
	return nil
}

func (r *sstReader) close() { r.f.Close() }
