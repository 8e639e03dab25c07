// Package storage is Sia's disk-backed columnar segment store. The
// in-memory engine caps the reproduction's scale factor and confines the
// Sia rewrite's payoff to row filtering; this package moves base tables to
// disk so a synthesized single-column predicate — exactly the shape zone
// maps evaluate — turns into *I/O elimination*: segments whose per-column
// min/max ranges cannot satisfy a pushed-down predicate are never read or
// decoded at all.
//
// A logical table is a directory of immutable segment files, appended by
// streaming ingestion and scanned in file order. Each segment is a
// self-describing flat file: little-endian column pages with optional
// null bitmaps, a header carrying magic/version/row-count/column catalog,
// a CRC-32 checksum per column page, and a footer holding per-column
// min/max zone maps and null counts. An integral page stores each value
// as its offset from the footer's minimum in 1, 2, 4 or 8 bytes, the
// fewest its zone map allows; a DOUBLE page stores float64 bit patterns. Writes are atomic and durable
// (tmp + fsync + rename + dir fsync via internal/fsatomic), so a crash
// mid-append leaves the previous segment set intact.
//
// Every corruption — truncation, bad magic, checksum mismatch, a footer
// that disagrees with the header's row count — surfaces as an error
// matching ErrCorrupt via errors.Is; the reader never panics on hostile
// bytes (see FuzzReadSegment).
package storage

import "errors"

// ErrCorrupt is the typed corruption sentinel: every structural problem a
// segment file can have — truncation, unknown magic or version, CRC
// mismatch on the header, a column page, or the footer, and header/footer
// row-count disagreement — returns an error wrapping ErrCorrupt, so
// callers distinguish "this file is damaged" (quarantine, re-ingest) from
// I/O errors (retry) with errors.Is.
var ErrCorrupt = errors.New("storage: corrupt segment")
