// Package store is the durable checkpoint layer: a versioned, deterministic
// snapshot/restore envelope for agent state, written atomically so a crash
// mid-checkpoint never leaves a corrupt file behind.
//
// The envelope is compact JSON: a magic marker, a schema version, the
// simulated save instant, a CRC-32 (IEEE) checksum of the payload, and the
// payload itself as raw JSON. Encoding is deterministic — encoding/json
// sorts map keys, float64 round-trips via the shortest representation, and
// time values serialize as exact RFC 3339 nanoseconds — so the same state
// always yields the same bytes, which the equivalence tests exploit to
// assert lossless roundtrips byte-for-byte.
package store

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"

	"smartoclock/internal/cluster"
	"smartoclock/internal/core"
)

// Magic marks a checkpoint envelope.
const Magic = "SOCSTATE"

// Version is the current schema version. Decode rejects envelopes from a
// different version: state types carry no migration shims, and silently
// restoring mismatched state is worse than a cold start.
const Version = 2

// Envelope is the on-disk checkpoint format.
type Envelope struct {
	Magic    string          `json:"magic"`
	Version  int             `json:"version"`
	SavedAt  time.Time       `json:"saved_at"`
	Checksum uint32          `json:"checksum"`
	Payload  json.RawMessage `json:"payload"`
}

// Checkpoint aggregates the durable state of one rack's control plane: the
// gOA, every sOA (keyed by server name, including its lifetime ledger), and
// the servers' hardware-adjacent state (cap level, wear counters).
// Individual fields may be nil/empty — a checkpoint holds whatever the rig
// chose to persist.
type Checkpoint struct {
	GOA     *core.GOAState                  `json:"goa,omitempty"`
	SOAs    map[string]*core.SOAState       `json:"soas,omitempty"`
	Servers map[string]*cluster.ServerState `json:"servers,omitempty"`
}

// Encode serializes state into an envelope, stamped with the (simulated)
// save instant. The same state and instant always produce the same bytes.
func Encode(savedAt time.Time, state any) ([]byte, error) {
	payload, err := json.Marshal(state)
	if err != nil {
		return nil, fmt.Errorf("store: encode payload: %w", err)
	}
	env := Envelope{
		Magic:    Magic,
		Version:  Version,
		SavedAt:  savedAt,
		Checksum: crc32.ChecksumIEEE(payload),
		Payload:  payload,
	}
	data, err := json.Marshal(env)
	if err != nil {
		return nil, fmt.Errorf("store: encode envelope: %w", err)
	}
	return data, nil
}

// Decode verifies an envelope (magic, version, checksum) and unmarshals its
// payload into state, returning the save instant.
func Decode(data []byte, state any) (time.Time, error) {
	var env Envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return time.Time{}, fmt.Errorf("store: decode envelope: %w", err)
	}
	if env.Magic != Magic {
		return time.Time{}, fmt.Errorf("store: bad magic %q, want %q", env.Magic, Magic)
	}
	if env.Version != Version {
		return time.Time{}, fmt.Errorf("store: schema version %d, this build reads %d", env.Version, Version)
	}
	if sum := crc32.ChecksumIEEE(env.Payload); sum != env.Checksum {
		return time.Time{}, fmt.Errorf("store: payload checksum %08x, envelope says %08x (corrupt checkpoint)", sum, env.Checksum)
	}
	if err := json.Unmarshal(env.Payload, state); err != nil {
		return time.Time{}, fmt.Errorf("store: decode payload: %w", err)
	}
	return env.SavedAt, nil
}

// StateInfo describes a process's durable-state status: where and when it
// last checkpointed, and what (if anything) it was restored from. The live
// telemetry plane publishes it at /statez.
type StateInfo struct {
	// CheckpointPath is where periodic checkpoints are written ("" when
	// checkpointing is off).
	CheckpointPath string `json:"checkpoint_path,omitempty"`
	// LastSavedAt is the (simulated) instant stamped into the most recent
	// checkpoint; LastBytes its encoded size; Writes the lifetime count.
	LastSavedAt time.Time `json:"last_saved_at,omitempty"`
	LastBytes   int       `json:"last_bytes,omitempty"`
	Writes      int       `json:"writes"`
	// RestoredFrom/RestoredAt record a warm start: the file the process
	// restored from and the save instant that checkpoint carried.
	RestoredFrom string    `json:"restored_from,omitempty"`
	RestoredAt   time.Time `json:"restored_at,omitempty"`
}

// Save writes state to path atomically: the envelope goes to a temp file in
// the same directory, is synced, then renamed over path. A reader never
// observes a partial checkpoint, and a crash mid-write leaves the previous
// checkpoint intact.
func Save(path string, savedAt time.Time, state any) error {
	data, err := Encode(savedAt, state)
	if err != nil {
		return err
	}
	return SaveEncoded(path, data)
}

// SaveEncoded atomically writes an already-encoded envelope to path (see
// Save). Callers that need the encoded size use Encode + SaveEncoded to
// avoid serializing twice.
func SaveEncoded(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("store: save: %w", err)
	}
	tmpName := tmp.Name()
	_, werr := tmp.Write(data)
	if werr == nil {
		werr = tmp.Sync()
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: save %s: %w", path, werr)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: save %s: %w", path, err)
	}
	return nil
}

// Load reads and decodes a checkpoint file into state, returning the save
// instant.
func Load(path string, state any) (time.Time, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return time.Time{}, fmt.Errorf("store: load: %w", err)
	}
	at, err := Decode(data, state)
	if err != nil {
		return time.Time{}, fmt.Errorf("store: load %s: %w", path, err)
	}
	return at, nil
}
