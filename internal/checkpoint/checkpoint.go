// Package checkpoint persists campaign state across process crashes with
// a crash-consistent, self-validating on-disk format.
//
// A checkpoint file is an envelope — magic, format version, payload
// length, CRC32 — around a gob-encoded payload supplied by the caller.
// Save writes the whole envelope to a temp file in the target directory,
// fsyncs it, renames it over the destination, and fsyncs the directory,
// so a crash at any point leaves either the previous checkpoint or the
// new one, never a torn mix: rename(2) is atomic and the CRC rejects any
// partially written temp file that somehow ends up at the final path.
// Load validates the envelope before decoding, so resuming from a
// corrupt or truncated file fails loudly instead of silently restoring
// garbage state.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"syscall"

	"repro/internal/faultinject"
)

// magic identifies a checkpoint envelope.
var magic = [8]byte{'B', 'V', 'F', 'C', 'K', 'P', 'T', '\n'}

// FormatVersion is bumped on incompatible envelope or payload changes; a
// mismatch fails Load rather than guessing. v2: Stats.Bugs keyed by the
// full manifestation signature (core.BugKey) instead of the bug ID.
// v3: Stats grew the cache hit/miss counters (v3 snapshots also carried
// a cross-shard verdict-cache payload, which gob now skips on load).
const FormatVersion = 3

// headerSize is magic + version(u32) + payload length(u64) + crc(u32).
const headerSize = 8 + 4 + 8 + 4

// ErrNoCheckpoint is returned by Load when no checkpoint file exists.
var ErrNoCheckpoint = errors.New("checkpoint: no checkpoint file")

// ErrCorrupt wraps all envelope-validation failures.
var ErrCorrupt = errors.New("checkpoint: corrupt or incompatible file")

// VersionError reports a well-formed checkpoint written by a different
// format version. It matches ErrCorrupt under errors.Is (existing callers
// treat any validation failure uniformly) but lets resuming tools tell
// "stale format, re-run from scratch" apart from actual file damage and
// print an actionable message.
type VersionError struct {
	Path string
	Got  uint32
	Want uint32
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("checkpoint: %s is format v%d, this build reads v%d (older checkpoints cannot be resumed; delete the file or rerun with its original build)",
		e.Path, e.Got, e.Want)
}

// Is makes errors.Is(err, ErrCorrupt) keep matching version mismatches.
func (e *VersionError) Is(target error) bool { return target == ErrCorrupt }

// TempSuffix is appended to the destination path for the staging file.
// A crash between the temp write and the rename leaves this file behind;
// Load never reads it.
const TempSuffix = ".tmp"

// Save atomically persists v (via gob) to path. The previous checkpoint
// at path, if any, is replaced only by the final rename; every failure
// mode before that leaves it untouched.
func Save(path string, v any) error {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(v); err != nil {
		return fmt.Errorf("checkpoint: encode: %w", err)
	}
	buf := make([]byte, 0, headerSize+payload.Len())
	buf = append(buf, magic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, FormatVersion)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(payload.Len()))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload.Bytes()))
	buf = append(buf, payload.Bytes()...)

	tmp := path + TempSuffix
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	// Simulated ENOSPC/short write: half the envelope lands in the temp
	// file, then the write fails — exactly the wreckage a full disk
	// leaves. The rename never happens, so the previous checkpoint at
	// path stays intact and the torn bytes stay quarantined in the .tmp
	// staging file Load never reads.
	if err := faultinject.FireErr("checkpoint.write"); err != nil {
		_, _ = f.Write(buf[:len(buf)/2])
		f.Close()
		return fmt.Errorf("checkpoint: write %s: %w", tmp, err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return fmt.Errorf("checkpoint: write %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("checkpoint: fsync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("checkpoint: close %s: %w", tmp, err)
	}
	// The crash window the fault-injection tests exercise: the temp file
	// is durable but the rename has not happened, so the previous
	// checkpoint must remain the one Load sees.
	if err := faultinject.FireErr("checkpoint.rename"); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("checkpoint: rename: %w", err)
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so the rename itself — the new file's
// directory entry — is durable. Real fsync failures are propagated: a
// caller that just created a finding or checkpoint file must learn its
// directory entry may not survive a power cut, not be told everything is
// durable. Filesystems that reject directory fsync outright (EINVAL /
// ENOTSUP) are tolerated — rename is still atomic there, durability of
// the entry is simply not something the OS lets us buy.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("checkpoint: open %s for fsync: %w", dir, err)
	}
	defer d.Close()
	if err := faultinject.FireErr("checkpoint.syncdir"); err != nil {
		return fmt.Errorf("checkpoint: fsync %s: %w", dir, err)
	}
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return fmt.Errorf("checkpoint: fsync %s: %w", dir, err)
	}
	return nil
}

// Load reads the checkpoint at path into v (a pointer), validating the
// envelope first. A missing file returns ErrNoCheckpoint; a damaged or
// version-incompatible file returns an error wrapping ErrCorrupt.
func Load(path string, v any) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return fmt.Errorf("%w at %s", ErrNoCheckpoint, path)
		}
		return fmt.Errorf("checkpoint: %w", err)
	}
	if len(buf) < headerSize {
		return fmt.Errorf("%w: %s is %d bytes, shorter than the header", ErrCorrupt, path, len(buf))
	}
	if !bytes.Equal(buf[:8], magic[:]) {
		return fmt.Errorf("%w: %s has no checkpoint magic", ErrCorrupt, path)
	}
	if ver := binary.LittleEndian.Uint32(buf[8:12]); ver != FormatVersion {
		return &VersionError{Path: path, Got: ver, Want: FormatVersion}
	}
	n := binary.LittleEndian.Uint64(buf[12:20])
	if uint64(len(buf)-headerSize) != n {
		return fmt.Errorf("%w: %s payload is %d bytes, header says %d", ErrCorrupt, path, len(buf)-headerSize, n)
	}
	payload := buf[headerSize:]
	if sum := crc32.ChecksumIEEE(payload); sum != binary.LittleEndian.Uint32(buf[20:24]) {
		return fmt.Errorf("%w: %s checksum mismatch", ErrCorrupt, path)
	}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(v); err != nil {
		return fmt.Errorf("%w: %s: %v", ErrCorrupt, path, err)
	}
	return nil
}

// Exists reports whether a (possibly invalid) checkpoint file is present.
func Exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
