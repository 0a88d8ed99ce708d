package store

import (
	"bytes"
	"errors"
	"flag"
	"testing"

	"repro/internal/rng"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_v1.store from the current writer")

// TestCrashRecoveryEveryOffset is the torn-write sweep: for a small store
// truncated at every byte offset k, the recovering reader must salvage
// exactly the fully committed blocks that fit in the first k bytes —
// with correct contents — and never panic. The strict reader must either
// read everything (k = full size) or fail with a typed error.
func TestCrashRecoveryEveryOffset(t *testing.T) {
	rows := randomRows(rng.New(77), 40)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, testSchema(), WriterOptions{BlockRows: 8}) // 5 blocks
	if err != nil {
		t.Fatal(err)
	}
	writeRows(t, w, rows)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// Ground truth: the committed-block boundaries of the intact file.
	intact, err := NewReaderOptions(bytes.NewReader(full), int64(len(full)), ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	type boundary struct {
		end  int64 // file offset at which this block is fully committed
		rows int64 // cumulative rows through this block
	}
	bounds := make([]boundary, 0, intact.NumBlocks())
	var cum int64
	for _, b := range intact.blocks {
		cum += int64(b.Rows)
		bounds = append(bounds, boundary{end: b.Off + b.Len, rows: cum})
	}

	wantRows := func(k int64) int64 {
		var n int64
		for _, b := range bounds {
			if b.end <= k {
				n = b.rows
			}
		}
		return n
	}

	for k := int64(0); k <= int64(len(full)); k++ {
		truncated := full[:k]
		r, err := NewRecoveringReader(bytes.NewReader(truncated), k)
		if want := wantRows(k); err != nil {
			// Only a header too torn to decode may fail, and always typed.
			if want != 0 {
				t.Fatalf("truncate@%d: recovering open failed (%v) with %d committed rows", k, err, want)
			}
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("truncate@%d: untyped error %v", k, err)
			}
		} else {
			if r.NumRows() != want {
				t.Fatalf("truncate@%d: salvaged %d rows, want %d", k, r.NumRows(), want)
			}
			checkRows(t, r, rows[:want])
			if k == int64(len(full)) && !r.Clean() {
				t.Fatalf("full file reported torn")
			}
		}
		// Strict open: all-or-typed-error.
		rs, err := NewReaderOptions(bytes.NewReader(truncated), k, ReaderOptions{})
		if k == int64(len(full)) {
			if err != nil {
				t.Fatalf("strict open of intact file: %v", err)
			}
			checkRows(t, rs, rows)
		} else if err == nil {
			t.Fatalf("truncate@%d: strict open succeeded on torn file", k)
		} else if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncate@%d: strict error untyped: %v", k, err)
		}
	}
}

// TestBitFlipDetection: flipping any single byte of the committed data
// region must never produce silently wrong rows — the reader either
// reports a typed error or (for flips in uncommitted framing the scan
// stops at) returns a verified prefix.
func TestBitFlipDetection(t *testing.T) {
	rows := randomRows(rng.New(99), 24)
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, testSchema(), WriterOptions{BlockRows: 8})
	writeRows(t, w, rows)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for pos := 0; pos < len(full); pos++ {
		mut := append([]byte{}, full...)
		mut[pos] ^= 0x40
		r, err := NewRecoveringReader(bytes.NewReader(mut), int64(len(mut)))
		if err != nil {
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
				t.Fatalf("flip@%d: untyped open error: %v", pos, err)
			}
			continue
		}
		// Whatever survived must decode to a prefix of the true rows, or
		// fail typed at read time. (A flip confined to the footer region
		// can leave all data blocks intact and readable.)
		n := r.NumRows()
		if n > int64(len(rows)) {
			t.Fatalf("flip@%d: salvaged %d rows from a %d-row file", pos, n, len(rows))
		}
		err = r.Scan(func(i int64, vals []Value) error {
			for c := range vals {
				if !sameValue(vals[c], rows[i][c]) {
					t.Fatalf("flip@%d: row %d col %d silently corrupted", pos, i, c)
				}
			}
			return nil
		})
		if err != nil && !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip@%d: untyped read error: %v", pos, err)
		}
	}
}
