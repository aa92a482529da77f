package synopses

import (
	"fmt"

	"github.com/tasterdb/taster/internal/storage"
)

// Versioned binary codec envelope shared by the two stored synopsis kinds,
// Sample and SketchJoin. Each one's Encode produces a fully self-describing
// record:
//
//	[4]byte magic "TSYN" | u8 version | u8 kind | u16 reserved | payload
//
// The kind byte lets internal/persist sniff a stored payload and dispatch
// to the right decoder; the version byte gates format evolution (decoders
// reject versions they do not understand instead of misreading them).
// SizeBytes() of both kinds equals len(Encode()) exactly — storage quotas
// charge what disk actually stores (asserted in internal/persist's codec
// tests).

// Stored is a synopsis a warehouse tier holds: a *Sample or a *SketchJoin.
// Its Go type is its kind in memory; its envelope kind byte is its kind on
// disk.
type Stored interface {
	// SizeBytes reports the serialized size; it equals len(Encode()).
	SizeBytes() int64
	// Encode serializes the synopsis into its versioned binary record.
	Encode() []byte
}

// EnvelopeBytes is the fixed size of the codec envelope.
const EnvelopeBytes = 8

// CodecVersion is the current serialization format version. Version 2
// introduced the partition-aware table layout (per-partition row counts and
// epochs in the header) inside sample payloads.
const CodecVersion = 2

// Codec kind bytes identifying the synopsis type inside the envelope. Kinds
// 2–6 and 8 belonged to record types no plan could produce (bare count-min,
// AMS, Flajolet-Martin, Bloom, heavy hitters, partitioned-sample bundle), and
// kind 7 to the sketch-join over two count-min planes that the per-key table
// of kind 9 replaced. All are retired — never reused, rejected by
// persist.Decode as unknown, and dropped at recovery. The version byte stays:
// bumping it would drop every stored sample too.
const (
	KindSample     byte = 1
	KindSketchJoin byte = 9
)

var codecMagic = [4]byte{'T', 'S', 'Y', 'N'}

// appendEnvelope writes the codec header for the given kind.
func appendEnvelope(dst []byte, kind byte) []byte {
	dst = append(dst, codecMagic[:]...)
	return append(dst, CodecVersion, kind, 0, 0)
}

// EnvelopeKind returns the kind byte of an encoded synopsis after
// validating magic and version.
func EnvelopeKind(b []byte) (byte, error) {
	if len(b) < EnvelopeBytes {
		return 0, fmt.Errorf("synopses: payload too short for codec envelope (%d bytes)", len(b))
	}
	if [4]byte(b[:4]) != codecMagic {
		return 0, fmt.Errorf("synopses: bad codec magic %q", b[:4])
	}
	if b[4] != CodecVersion {
		return 0, fmt.Errorf("synopses: unsupported codec version %d (want %d)", b[4], CodecVersion)
	}
	return b[5], nil
}

// envelopePayload validates the envelope against the expected kind and
// returns a bounds-checked reader over the payload.
func envelopePayload(b []byte, kind byte) (*storage.Reader, error) {
	got, err := EnvelopeKind(b)
	if err != nil {
		return nil, err
	}
	if got != kind {
		return nil, fmt.Errorf("synopses: codec kind %d, want %d", got, kind)
	}
	return storage.NewReader(b[EnvelopeBytes:]), nil
}
