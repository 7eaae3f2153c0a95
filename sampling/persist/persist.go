// Package persist defines the durable checkpoint container for a
// whole serving process: every live stream and comparison group of a
// hub, each as an opaque engine-state blob (sampling.MarshalState
// framing, self-checksummed), plus the hub's cumulative counters and
// the instant the snapshot was taken. The container is what sampled
// writes to -checkpoint-dir on a timer and on shutdown, and reads back
// at boot. (The cluster router does not use it: it moves one stream or
// group at a time as its bare engine or group blob, over the
// /v1/{streams,groups}/{id}/state routes.)
//
// The framing mirrors sampling/wire and the engine-state codec: a
// little-endian magic, a version byte, the payload, and a CRC-32
// (IEEE) trailer over everything before it. Corruption, truncation
// and version skew surface as typed errors before any record is
// interpreted; the per-engine blobs inside carry their own framing
// and are re-validated when they are restored into engines.
//
// Layout (all integers little-endian):
//
//	offset  size  field
//	0       4     magic "Ckp1" (0x31706b43 little-endian)
//	4       1     version (currently 1)
//	5       8     taken-at (int64 unix nanoseconds, caller-supplied)
//	13      64    totals (8 x int64: ticks, kept, group ticks, group
//	              kept, created, evicted, groups created, groups
//	              evicted)
//	...           u32 stream count, then per stream: u32-length-
//	              prefixed id, int64 last-active unix nanoseconds,
//	              u32-length-prefixed engine-state blob
//	...           u32 group count, then per group: the same triple
//	              with a group-state blob
//	end-4   4     CRC-32 (IEEE) of bytes [0, end-4)
//
// The package holds no clock and no filesystem state beyond the two
// explicit file helpers: timestamps come in from the caller, so
// checkpoint bytes are a pure function of hub state and the supplied
// instant.
package persist

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"repro/internal/binenc"
)

const (
	checkpointMagic uint32 = 0x31706b43 // "Ckp1" little-endian
	// Version is the current checkpoint container version.
	Version = 1
)

// The typed failure modes of Decode; branch with errors.Is.
var (
	// ErrBadCheckpoint is wrapped by Decode for blobs that are
	// structurally unusable: too short, wrong magic, truncated or
	// malformed records.
	ErrBadCheckpoint = errors.New("bad checkpoint")
	// ErrCheckpointVersion is wrapped when the container version is not
	// one this build reads.
	ErrCheckpointVersion = errors.New("unsupported checkpoint version")
	// ErrCheckpointChecksum is wrapped when the CRC trailer does not
	// match the content — bit rot or a torn write.
	ErrCheckpointChecksum = errors.New("checkpoint checksum mismatch")
)

// Totals carries the hub's cumulative counters through a restart, so
// a restored process reports lifetime tick/kept/eviction totals that
// include everything the previous incarnation served.
type Totals struct {
	Ticks         int64
	Kept          int64
	GroupTicks    int64
	GroupKept     int64
	Created       int64
	Evicted       int64
	GroupsCreated int64
	GroupsEvicted int64
}

// Record is one checkpointed stream or group: its hub id, its last
// activity stamp (informational — a restoring hub re-stamps activity
// at restore time so downtime does not count as idleness), and the
// opaque state blob from Engine.MarshalState or Group.MarshalState.
type Record struct {
	ID                 string
	LastActiveUnixNano int64
	State              []byte
}

// Checkpoint is one whole-process snapshot, ready to encode to a
// single file or HTTP body.
type Checkpoint struct {
	// TakenAtUnixNano is the instant the snapshot was cut, supplied by
	// the caller's clock (the package itself never reads time).
	TakenAtUnixNano int64
	Totals          Totals
	Streams         []Record
	Groups          []Record
}

// Encode serializes the checkpoint into the framed, checksummed v1
// container.
func (c *Checkpoint) Encode() []byte {
	b := binenc.AppendU32(nil, checkpointMagic)
	b = binenc.AppendU8(b, Version)
	b = binenc.AppendI64(b, c.TakenAtUnixNano)
	b = binenc.AppendI64(b, c.Totals.Ticks)
	b = binenc.AppendI64(b, c.Totals.Kept)
	b = binenc.AppendI64(b, c.Totals.GroupTicks)
	b = binenc.AppendI64(b, c.Totals.GroupKept)
	b = binenc.AppendI64(b, c.Totals.Created)
	b = binenc.AppendI64(b, c.Totals.Evicted)
	b = binenc.AppendI64(b, c.Totals.GroupsCreated)
	b = binenc.AppendI64(b, c.Totals.GroupsEvicted)
	b = appendRecords(b, c.Streams)
	b = appendRecords(b, c.Groups)
	return binenc.AppendU32(b, crc32.ChecksumIEEE(b))
}

// appendRecords writes one u32-counted record section.
func appendRecords(b []byte, recs []Record) []byte {
	b = binenc.AppendU32(b, uint32(len(recs)))
	for i := range recs {
		b = binenc.AppendString(b, recs[i].ID)
		b = binenc.AppendI64(b, recs[i].LastActiveUnixNano)
		b = binenc.AppendBytes(b, recs[i].State)
	}
	return b
}

// minRecordSize bounds how small one encoded stream/group record can
// be (empty id, empty state): two length prefixes plus the activity
// stamp. Declared counts are checked against it before any allocation
// so a corrupt count cannot demand absurd memory.
const minRecordSize = 4 + 8 + 4

// Decode parses and validates a v1 container. Framing problems come
// back as ErrBadCheckpoint / ErrCheckpointVersion /
// ErrCheckpointChecksum; the engine blobs inside are not interpreted
// here (hub.Restore does that, engine by engine). Record byte slices
// are copies — the returned checkpoint does not alias data.
func Decode(data []byte) (*Checkpoint, error) {
	const overhead = 4 + 1 + 4 // magic + version + crc
	if len(data) < overhead {
		return nil, fmt.Errorf("persist: %d-byte blob is smaller than the container framing: %w", len(data), ErrBadCheckpoint)
	}
	r := binenc.NewReader(data)
	if got := r.U32(); got != checkpointMagic {
		return nil, fmt.Errorf("persist: magic %#08x, want %#08x: %w", got, checkpointMagic, ErrBadCheckpoint)
	}
	if v := r.U8(); v != Version {
		return nil, fmt.Errorf("persist: container version %d, want %d: %w", v, Version, ErrCheckpointVersion)
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	want := binenc.NewReader(trailer).U32()
	if got := crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("persist: crc %#08x, want %#08x: %w", got, want, ErrCheckpointChecksum)
	}
	r = binenc.NewReader(body[4+1:])
	ck := &Checkpoint{TakenAtUnixNano: r.I64()}
	ck.Totals.Ticks = r.I64()
	ck.Totals.Kept = r.I64()
	ck.Totals.GroupTicks = r.I64()
	ck.Totals.GroupKept = r.I64()
	ck.Totals.Created = r.I64()
	ck.Totals.Evicted = r.I64()
	ck.Totals.GroupsCreated = r.I64()
	ck.Totals.GroupsEvicted = r.I64()
	var err error
	if ck.Streams, err = readRecords(r, "stream"); err != nil {
		return nil, err
	}
	if ck.Groups, err = readRecords(r, "group"); err != nil {
		return nil, err
	}
	if err := r.End(); err != nil {
		return nil, fmt.Errorf("persist: %v: %w", err, ErrBadCheckpoint)
	}
	return ck, nil
}

// readRecords reads one u32-counted record section, holding the
// declared count against the bytes actually present before any
// allocation.
func readRecords(r *binenc.Reader, kind string) ([]Record, error) {
	n := int(r.U32())
	if r.Err() == nil && n*minRecordSize > r.Remaining() {
		return nil, fmt.Errorf("persist: %s count %d exceeds the %d bytes remaining: %w", kind, n, r.Remaining(), ErrBadCheckpoint)
	}
	if r.Err() != nil || n == 0 {
		return nil, nil
	}
	out := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		rec := Record{
			ID:                 r.String(),
			LastActiveUnixNano: r.I64(),
		}
		rec.State = append([]byte(nil), r.Bytes()...)
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("persist: %s record %d: %v: %w", kind, i, err, ErrBadCheckpoint)
		}
		out = append(out, rec)
	}
	return out, nil
}

// WriteFile encodes the checkpoint and publishes it at path with
// WriteAtomic.
func WriteFile(path string, c *Checkpoint) error {
	return WriteAtomic(path, c.Encode())
}

// WriteAtomic publishes data at path: the bytes land in a temp file in
// the same directory, are synced, and replace path in a single rename,
// so a reader (or a crash) never observes a half-written file. A failed
// write leaves no temp file behind.
func WriteAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("persist: creating temp file: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("persist: writing %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("persist: syncing %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("persist: closing %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("persist: publishing %s: %w", path, err)
	}
	return nil
}

// ReadFile reads and decodes a checkpoint written by WriteFile.
func ReadFile(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("persist: reading checkpoint: %w", err)
	}
	return Decode(data)
}
