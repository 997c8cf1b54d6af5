package system

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// This file is the stable wire codec for Results. The experiment store
// (internal/sweep) persists run records across campaigns, so the encoding
// must not drift when Go identifiers are refactored: the schema is the
// json tags on Results and on every struct it holds, not the Go names.
// The golden files in testdata pin it byte for byte, and TestWireTags
// fails on any field that lacks an explicit snake_case tag.

// ParseProtocol inverts Protocol.String.
func ParseProtocol(s string) (Protocol, error) {
	for p := range protocols {
		if protocols[p].name == s {
			return Protocol(p), nil
		}
	}
	return 0, fmt.Errorf("system: unknown protocol %q", s)
}

// MarshalText encodes p by name, so stored records stay legible and
// survive a reordering of the enum.
func (p Protocol) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

// UnmarshalText inverts MarshalText; an unknown name is an error.
func (p *Protocol) UnmarshalText(text []byte) (err error) {
	*p, err = ParseProtocol(string(text))
	return err
}

// ParseNetKind inverts NetKind.String.
func ParseNetKind(s string) (NetKind, error) {
	for k := CrossbarNet; k <= OmegaNet; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("system: unknown network kind %q", s)
}

// EncodeStable renders r in the stable wire schema: a single JSON object
// with fixed field names and order, no indentation, suitable for
// line-oriented stores and byte-for-byte comparison across runs.
func (r Results) EncodeStable() ([]byte, error) {
	var buf bytes.Buffer
	if err := r.EncodeStableTo(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// EncodeStableTo appends r's stable wire encoding — the exact bytes
// EncodeStable returns — to buf. Callers that encode many results (the
// sweep executor's workers) reuse one buffer so the encoder's scratch
// space is allocated once per worker, not once per run.
func (r Results) EncodeStableTo(buf *bytes.Buffer) error {
	if err := json.NewEncoder(buf).Encode(r); err != nil {
		return fmt.Errorf("system: encoding results: %w", err)
	}
	// Encoder.Encode appends a newline json.Marshal does not; the wire
	// format is newline-free (the store adds its own line framing).
	buf.Truncate(buf.Len() - 1)
	return nil
}

// DecodeResults inverts EncodeStable.
func DecodeResults(data []byte) (Results, error) {
	var r Results
	if err := json.Unmarshal(data, &r); err != nil {
		return Results{}, fmt.Errorf("system: decoding results: %w", err)
	}
	return r, nil
}
