package persist

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"github.com/tasterdb/taster/internal/obs"
)

// Store is the warehouse's disk backing: a flat directory holding one
// payload file per materialized synopsis plus a manifest describing the
// engine state the files belong to.
//
// Crash-safety contract:
//
//   - Item files are self-validating (magic, id, length, CRC32 of the
//     payload) and written via write-temp-fsync-rename, so a reader never
//     observes a half-written payload under its final name; a torn file
//     left by a crashed rename or a truncated disk fails validation.
//   - The manifest is the authoritative index and is itself written via
//     write-temp-fsync-rename. Item files are written BEFORE the manifest
//     that references them; recovery therefore resolves every crash window
//     to a consistent view: an orphan payload file (spill completed,
//     manifest not yet updated) is garbage-collected, and a manifest entry
//     whose payload file is missing or corrupt (eviction raced the crash,
//     or the spill tore) is dropped, never served.
type Store struct {
	dir string

	// Obs counts spills, fault-ins, manifest writes and the payload bytes
	// moved. Write-only and nil-safe; set once right after OpenStore, before
	// the store is shared.
	Obs *obs.DiskObs
}

// OpenStore opens (creating if needed) a warehouse directory. Stale
// .tmp-* files — writes torn by a crash before their rename — are cleared
// here so repeated crash/restart cycles cannot leak disk space.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: open store: %w", err)
	}
	if des, err := os.ReadDir(dir); err == nil {
		for _, de := range des {
			if strings.HasPrefix(de.Name(), ".tmp-") {
				_ = os.Remove(filepath.Join(dir, de.Name()))
			}
		}
	}
	return &Store{dir: dir}, nil
}

const (
	manifestName   = "MANIFEST.json"
	itemPrefix     = "item_"
	itemSuffix     = ".syn"
	itemFileMagic  = uint32(0x5449544d) // "TITM"
	itemHeaderSize = 4 + 1 + 3 + 8 + 8 + 4
)

// ItemPath returns the payload file path for a synopsis id.
func (s *Store) ItemPath(id uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s%d%s", itemPrefix, id, itemSuffix))
}

// WriteItem durably stores one synopsis payload (a persist.Encode record)
// under the item's id. The file carries its own id, length and CRC so a
// crash mid-write (caught by the temp-rename) or later corruption (caught
// by the checksum) is detected at read time.
func (s *Store) WriteItem(id uint64, payload []byte) error {
	buf := make([]byte, 0, itemHeaderSize+len(payload))
	var tmp [8]byte
	binary.LittleEndian.PutUint32(tmp[:4], itemFileMagic)
	buf = append(buf, tmp[:4]...)
	buf = append(buf, 1, 0, 0, 0) // version, reserved
	binary.LittleEndian.PutUint64(tmp[:], id)
	buf = append(buf, tmp[:]...)
	binary.LittleEndian.PutUint64(tmp[:], uint64(len(payload)))
	buf = append(buf, tmp[:]...)
	binary.LittleEndian.PutUint32(tmp[:4], crc32.ChecksumIEEE(payload))
	buf = append(buf, tmp[:4]...)
	buf = append(buf, payload...)
	if err := s.writeDurably(s.ItemPath(id), buf); err != nil {
		return err
	}
	s.Obs.ItemWrite(int64(len(payload)))
	return nil
}

// ReadItem loads and validates one synopsis payload.
func (s *Store) ReadItem(id uint64) ([]byte, error) {
	b, err := os.ReadFile(s.ItemPath(id))
	if err != nil {
		return nil, err
	}
	if len(b) < itemHeaderSize {
		return nil, fmt.Errorf("persist: item %d: truncated header (%d bytes)", id, len(b))
	}
	if binary.LittleEndian.Uint32(b[:4]) != itemFileMagic {
		return nil, fmt.Errorf("persist: item %d: bad magic", id)
	}
	if b[4] != 1 {
		return nil, fmt.Errorf("persist: item %d: unsupported file version %d", id, b[4])
	}
	if got := binary.LittleEndian.Uint64(b[8:16]); got != id {
		return nil, fmt.Errorf("persist: item %d: file claims id %d", id, got)
	}
	n := binary.LittleEndian.Uint64(b[16:24])
	want := binary.LittleEndian.Uint32(b[24:28])
	payload := b[itemHeaderSize:]
	if uint64(len(payload)) != n {
		return nil, fmt.Errorf("persist: item %d: payload %d bytes, header says %d", id, len(payload), n)
	}
	if crc32.ChecksumIEEE(payload) != want {
		return nil, fmt.Errorf("persist: item %d: checksum mismatch", id)
	}
	s.Obs.ItemRead(int64(len(payload)))
	return payload, nil
}

// RemoveItem deletes an item's payload file (missing is not an error: an
// eviction may race a crash that already lost the file).
func (s *Store) RemoveItem(id uint64) error {
	err := os.Remove(s.ItemPath(id))
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// ItemIDs lists the synopsis ids that have payload files, sorted.
func (s *Store) ItemIDs() ([]uint64, error) {
	des, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var ids []uint64
	for _, de := range des {
		name := de.Name()
		if !strings.HasPrefix(name, itemPrefix) || !strings.HasSuffix(name, itemSuffix) {
			continue
		}
		id, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, itemPrefix), itemSuffix), 10, 64)
		if err != nil {
			continue
		}
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

// WriteManifest atomically replaces the manifest: the JSON is written to a
// temp file, fsynced, and renamed over the old manifest, so a crash leaves
// either the previous manifest or the new one — never a torn mix.
func (s *Store) WriteManifest(m *Manifest) error {
	m.Version = ManifestVersion
	b, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("persist: marshal manifest: %w", err)
	}
	if err := s.writeDurably(filepath.Join(s.dir, manifestName), append(b, '\n')); err != nil {
		return err
	}
	s.Obs.Manifest(int64(len(b)) + 1)
	return nil
}

// LoadManifest reads the manifest; ok is false when none exists (a fresh
// or wiped warehouse directory — a cold start, not an error).
func (s *Store) LoadManifest() (m *Manifest, ok bool, err error) {
	b, err := os.ReadFile(filepath.Join(s.dir, manifestName))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	m = &Manifest{}
	if err := json.Unmarshal(b, m); err != nil {
		return nil, false, fmt.Errorf("persist: corrupt manifest: %w", err)
	}
	if m.Version != ManifestVersion {
		return nil, false, fmt.Errorf("persist: manifest version %d, want %d", m.Version, ManifestVersion)
	}
	return m, true, nil
}

// writeDurably implements write-temp-fsync-rename, the crash-safe publish
// idiom every durable write in the store goes through. The directory is
// fsynced after the rename on a best-effort basis (some filesystems do not
// support directory syncs; recovery validation covers the gap).
func (s *Store) writeDurably(path string, b []byte) error {
	tmp, err := os.CreateTemp(s.dir, ".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	if _, err := tmp.Write(b); err != nil {
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
	if err := os.Rename(tmpName, path); err != nil {
		return err
	}
	if d, err := os.Open(s.dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}
