// Package persist implements the synopsis warehouse's persistent tier: a
// versioned binary codec for the two synopsis kinds a warehouse item holds
// (samples and sketch-joins) plus warehouse item metadata, and a crash-safe
// disk store (one payload file per item plus a manifest written via
// write-temp-fsync-rename) that warehouse.Manager and core.Engine use to
// spill, reload and recover materialized synopses.
//
// The codec is the contract behind SizeBytes(): a synopsis's quota charge
// equals the byte length persist.Encode produces for it, so the tuner's
// storage accounting is exactly what disk stores. Encoded records are
// self-describing (magic, version, kind — see internal/synopses codec.go),
// which lets Decode dispatch without out-of-band typing and lets recovery
// reject foreign or corrupt files cleanly. Kind bytes 2–8 are retired —
// record types no plan could produce, and kind 7, the sketch-join over
// count-min planes that kind 9's per-key table replaced: Decode rejects them
// as unknown, recovery drops a stored one (its envelope kind is not its
// entry's), and the numbers are never reused.
package persist

import (
	"fmt"

	"github.com/tasterdb/taster/internal/synopses"
)

// Encode serializes a synopsis into its versioned binary record.
func Encode(s synopses.Stored) []byte { return s.Encode() }

// Decode reverses Encode, dispatching on the record's kind byte. The
// concrete type of the result matches the encoded kind.
func Decode(b []byte) (synopses.Stored, error) {
	kind, err := synopses.EnvelopeKind(b)
	if err != nil {
		return nil, err
	}
	switch kind {
	case synopses.KindSample:
		return synopses.DecodeSample(b)
	case synopses.KindSketchJoin:
		return synopses.DecodeSketchJoin(b)
	}
	return nil, fmt.Errorf("persist: unknown synopsis kind %d", kind)
}
