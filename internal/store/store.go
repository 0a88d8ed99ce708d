// Package store is the versioned on-disk columnar result format shared by
// the engine's structured sinks and the sweep's cell cache. A store file
// holds one table: a fixed schema of typed columns (float64, int64,
// dictionary-encoded string) laid out as a header, a sequence of
// independently committed CRC-guarded blocks of column pages, and a footer
// manifest carrying the block index for O(1) random row access.
//
// Layout (format major version 1):
//
//	file   := header block* footer?
//	header := magic "p2pcolv1" | major u16 | minor u16 |
//	          metaLen u32 | metaJSON | crc32c(header)
//	block  := tag "BLK1" | payloadLen u32 | payload | crc32c(payload)
//	payload:= rows u32 | page*            (one page per column, in order)
//	page   := pageLen u32 | pageBytes | crc32c(pageBytes)
//	footer := tag "FTR1" | maniLen u32 | maniJSON |
//	          crc32c(maniJSON) | maniLen u32 | tail magic "p2pcolfe"
//
// All integers are little-endian. Column pages are fixed-width: float64
// pages hold raw IEEE-754 bits and int64 pages raw two's-complement, 8
// bytes per row, so a row's cell is pure offset arithmetic; string pages
// hold a per-page dictionary (unique values in first-appearance order)
// followed by 4-byte indexes per row. metaJSON repeats the schema so a
// torn file (no footer) still decodes; maniJSON adds the block index.
//
// Invariants the readers enforce and the fuzz targets pin:
//
//   - every multi-byte length is validated against the bytes actually
//     present before any allocation, so corrupt or adversarial lengths
//     yield ErrCorrupt/ErrTruncated, never a panic or an OOM;
//   - a block is visible only after its trailing CRC is on disk, so a
//     write torn at any byte offset loses at most the uncommitted tail —
//     Recover salvages every fully committed block;
//   - writers emit no timestamps or other environment-dependent bytes, so
//     identical appends produce identical files (the determinism contract
//     the engine and sweep extend across worker counts).
//
// See DESIGN.md §14 for the corruption model and the wiring into
// engine.StoreSink, sweep.CellStore, and cmd/results.
package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
)

// Typed errors. Every error this package reports about file content or
// schema use wraps exactly one of these, so callers (and the fuzz
// harness) can classify failures without string matching.
var (
	// ErrCorrupt marks structurally invalid bytes: bad magic, CRC
	// mismatches, out-of-range lengths or dictionary indexes.
	ErrCorrupt = errors.New("store: corrupt")
	// ErrTruncated marks a file that ends mid-structure: a header, block,
	// or footer whose declared length runs past end-of-file.
	ErrTruncated = errors.New("store: truncated")
	// ErrVersion marks a file written by an incompatible (future) major
	// version of the format.
	ErrVersion = errors.New("store: unsupported format version")
	// ErrSchema marks a schema mismatch: appending rows whose arity or
	// types differ from the declared columns, or opening a file for append
	// with a different schema than it was created with.
	ErrSchema = errors.New("store: schema mismatch")
)

// Format constants.
const (
	// MajorVersion / MinorVersion identify the on-disk format this package
	// writes. Readers accept any minor version under a known major.
	MajorVersion = 1
	MinorVersion = 0

	headerMagic = "p2pcolv1"
	tailMagic   = "p2pcolfe"
	blockTag    = "BLK1"
	footerTag   = "FTR1"

	// DefaultBlockRows is the writer's default rows-per-block: large
	// enough to amortize per-block framing, small enough that a reader's
	// working set stays a few pages.
	DefaultBlockRows = 4096

	// defaultCacheBlocks bounds how many decoded blocks a reader keeps
	// resident (LRU): sequential scans hold one, stride access a handful,
	// and a million-row file is never slurped whole.
	defaultCacheBlocks = 8
)

// crcTable is the Castagnoli polynomial table shared by all CRCs in the
// format (hardware-accelerated on amd64/arm64).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

func checksum(b []byte) uint32 { return crc32.Checksum(b, crcTable) }

// Type identifies a column's value type.
type Type uint8

// Column value types.
const (
	Float64 Type = iota + 1
	Int64
	String
)

// String returns the schema-JSON name of the type.
func (t Type) String() string {
	switch t {
	case Float64:
		return "f64"
	case Int64:
		return "i64"
	case String:
		return "str"
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// typeFromName inverts Type.String for schema JSON decoding.
func typeFromName(s string) (Type, bool) {
	switch s {
	case "f64":
		return Float64, true
	case "i64":
		return Int64, true
	case "str":
		return String, true
	}
	return 0, false
}

// Column is one named, typed column.
type Column struct {
	Name string
	Type Type
}

// Schema declares a store's columns plus a free-form application tag
// (e.g. "p2p-records/1") that tells generic tooling like cmd/results how
// to interpret the rows.
type Schema struct {
	App  string
	Cols []Column
}

// Col returns the index of the named column, or -1.
func (s Schema) Col(name string) int {
	for i, c := range s.Cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Equal reports whether two schemas declare identical columns and app tag.
func (s Schema) Equal(o Schema) bool {
	if s.App != o.App || len(s.Cols) != len(o.Cols) {
		return false
	}
	for i := range s.Cols {
		if s.Cols[i] != o.Cols[i] {
			return false
		}
	}
	return true
}

// validate rejects schemas the format cannot represent.
func (s Schema) validate() error {
	if len(s.Cols) == 0 {
		return fmt.Errorf("%w: schema has no columns", ErrSchema)
	}
	seen := make(map[string]bool, len(s.Cols))
	for _, c := range s.Cols {
		if c.Name == "" {
			return fmt.Errorf("%w: empty column name", ErrSchema)
		}
		if seen[c.Name] {
			return fmt.Errorf("%w: duplicate column %q", ErrSchema, c.Name)
		}
		seen[c.Name] = true
		switch c.Type {
		case Float64, Int64, String:
		default:
			return fmt.Errorf("%w: column %q has unknown type %d", ErrSchema, c.Name, c.Type)
		}
	}
	return nil
}

// schemaJSON is the schema's wire form, shared by the header metaJSON and
// the footer manifest.
type schemaJSON struct {
	App  string       `json:"app,omitempty"`
	Cols []columnJSON `json:"cols"`
}

type columnJSON struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

func (s Schema) toJSON() schemaJSON {
	j := schemaJSON{App: s.App, Cols: make([]columnJSON, len(s.Cols))}
	for i, c := range s.Cols {
		j.Cols[i] = columnJSON{Name: c.Name, Type: c.Type.String()}
	}
	return j
}

func (j schemaJSON) toSchema() (Schema, error) {
	s := Schema{App: j.App, Cols: make([]Column, len(j.Cols))}
	for i, c := range j.Cols {
		t, ok := typeFromName(c.Type)
		if !ok {
			return Schema{}, fmt.Errorf("%w: unknown column type %q", ErrCorrupt, c.Type)
		}
		s.Cols[i] = Column{Name: c.Name, Type: t}
	}
	if err := s.validate(); err != nil {
		// A decoded schema that fails validation is file corruption, not a
		// caller error.
		return Schema{}, fmt.Errorf("%w: invalid embedded schema: %v", ErrCorrupt, err)
	}
	return s, nil
}

// manifest is the footer's wire form: the header fields again (so a reader
// needs only the footer on the fast path) plus the block index.
type manifest struct {
	Major  int          `json:"major"`
	Minor  int          `json:"minor"`
	Rows   int64        `json:"rows"`
	Schema schemaJSON   `json:"schema"`
	Blocks []blockEntry `json:"blocks"`
}

// blockEntry locates one committed block: the file offset of its tag, its
// total framed length, and its row count.
type blockEntry struct {
	Off  int64  `json:"off"`
	Len  int64  `json:"len"`
	Rows uint32 `json:"rows"`
	CRC  uint32 `json:"crc"`
}

// Value is one cell: a tagged union kept flat to avoid per-cell interface
// allocations on the append path.
type Value struct {
	t Type
	f float64
	i int64
	s string
}

// F wraps a float64 cell.
func F(v float64) Value { return Value{t: Float64, f: v} }

// I wraps an int64 cell.
func I(v int64) Value { return Value{t: Int64, i: v} }

// S wraps a string cell.
func S(v string) Value { return Value{t: String, s: v} }

// Type returns the cell's type (0 for a zero Value).
func (v Value) Type() Type { return v.t }

// Float64 returns the float64 cell value (0 for other types).
func (v Value) Float64() float64 { return v.f }

// Int64 returns the int64 cell value (0 for other types).
func (v Value) Int64() int64 { return v.i }

// String returns the string cell value ("" for other types).
func (v Value) String() string { return v.s }

// encodeHeader renders the file header for a schema.
func encodeHeader(s Schema) ([]byte, error) {
	meta, err := json.Marshal(s.toJSON())
	if err != nil {
		return nil, fmt.Errorf("store: encode header: %w", err)
	}
	b := make([]byte, 0, len(headerMagic)+8+len(meta)+4)
	b = append(b, headerMagic...)
	b = appendU16(b, MajorVersion)
	b = appendU16(b, MinorVersion)
	b = appendU32(b, uint32(len(meta)))
	b = append(b, meta...)
	b = appendU32(b, checksum(b))
	return b, nil
}

func appendU16(b []byte, v uint16) []byte {
	return append(b, byte(v), byte(v>>8))
}

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendU64(b []byte, v uint64) []byte {
	return appendU32(appendU32(b, uint32(v)), uint32(v>>32))
}

func readU16(b []byte) uint16 { return uint16(b[0]) | uint16(b[1])<<8 }

func readU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func readU64(b []byte) uint64 {
	return uint64(readU32(b)) | uint64(readU32(b[4:]))<<32
}
