package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"sia/internal/engine"
	"sia/internal/fsatomic"
	"sia/internal/predicate"
)

// Segment file layout (all integers little-endian):
//
//	┌──────────────────────────────────────────────────────────────┐
//	│ header   magic "SIASEG02" (8) — name + format version        │
//	│          rowCount uint64                                     │
//	│          colCount uint32 · catalogLen uint32                 │
//	│          catalog: per column {nameLen u16, name, type u8,    │
//	│                               notNull u8, width u8}          │
//	│          headerCRC uint32 (CRC-32/IEEE of everything above)  │
//	│          zero padding to an 8-byte boundary                  │
//	├──────────────────────────────────────────────────────────────┤
//	│ pages    one per column, in catalog order, each 8-aligned:   │
//	│          values  rowCount × width bytes: an integral value   │
//	│                  v as v − min (the footer's), a DOUBLE as    │
//	│                  its float64 bits (width 8); NULL slots 0    │
//	│          bitmap  ⌈rowCount/8⌉ bytes, nullable columns only   │
//	│                  (bit r&7 of byte r>>3 set ⇔ row r is NULL)  │
//	│          pageCRC uint32 over values+bitmap · pad to 8        │
//	├──────────────────────────────────────────────────────────────┤
//	│ footer   rowCount uint64 (echo — must agree with the header) │
//	│          per column {min u64, max u64, nullCount u64}        │
//	│          (min/max are int64 bits over non-NULL values;       │
//	│           float64 bits for DOUBLE; min>max ⇔ no values)      │
//	│ trailer  footerCRC uint32 · footerLen uint32 ·               │
//	│          end magic "SIASEGZ1" (8)                            │
//	└──────────────────────────────────────────────────────────────┘
//
// An integral page is frame-of-reference coded: its width is the fewest of
// 1, 2, 4 or 8 bytes that hold max − min, and an all-NULL column has width
// 1 and reference 0. Every offset is computable from the header alone, so
// the reader seeks straight to any column and cross-checks the file size.
// The trailer sits at a fixed distance from the end of the file, so zone
// maps load with one small read regardless of segment size.
const (
	segMagic    = "SIASEG02"
	segMagicV1  = "SIASEG01" // fixed 8-byte slots; no longer read
	segEndMagic = "SIASEGZ1"

	headerFixedLen = 8 + 8 + 4 + 4 // magic, rowCount, colCount, catalogLen
	trailerLen     = 4 + 4 + 8     // footerCRC, footerLen, end magic

	// maxSegmentRows and maxSegmentCols bound what a header may claim
	// before any size arithmetic happens, so a corrupt row count can never
	// drive allocation or overflow the layout computation.
	maxSegmentRows = 1 << 31
	maxSegmentCols = 1 << 12
	maxColNameLen  = 1 << 10
)

// ZoneMap is one column's per-segment statistics: the min/max over its
// non-NULL values and the NULL count. For DOUBLE columns Min and Max hold
// math.Float64bits patterns; for integral columns they are the values
// themselves. HasValues is false when every row is NULL (or the segment is
// empty), in which case Min/Max are meaningless.
type ZoneMap struct {
	Min, Max  int64
	NullCount uint64
	HasValues bool
}

// base is the reference an integral page stores its values' offsets
// from: the minimum, or 0 for a column without values.
func (zm ZoneMap) base() int64 {
	if zm.HasValues {
		return zm.Min
	}
	return 0
}

// maxAbs bounds |v| over an integral column's decoded values, NULL slots
// (which decode to base) included: the overflow bound Program.FitsInt64
// takes.
func (zm ZoneMap) maxAbs() uint64 {
	if !zm.HasValues {
		return 0
	}
	return max(predicate.AbsUint64(zm.Min), predicate.AbsUint64(zm.Max))
}

// slotWidth returns the bytes per value of column c's page given its zone
// map: 8 for DOUBLE bits, otherwise the fewest of 1, 2, 4 and 8 that hold
// max − min.
func slotWidth(c predicate.Column, zm ZoneMap) int {
	if !c.Type.Integral() {
		return 8
	}
	switch span := uint64(zm.Max) - uint64(zm.Min); {
	case !zm.HasValues || span < 1<<8:
		return 1
	case span < 1<<16:
		return 2
	case span < 1<<32:
		return 4
	default:
		return 8
	}
}

// pageSpec locates one column page inside a segment file.
type pageSpec struct {
	off    int64 // start of the values array (8-aligned)
	width  int   // bytes per value slot
	valLen int64
	bmLen  int64 // 0 for NOT NULL columns
}

// dataLen returns the CRC-covered byte count (values + bitmap).
func (p pageSpec) dataLen() int64 { return p.valLen + p.bmLen }

// segLayout is the computed geometry of a segment file: where every page
// and the footer live, and the exact total size. It is a pure function of
// the header (row count, catalog and slot widths), which is what lets the
// reader cross-check a file's actual size against what its header implies.
type segLayout struct {
	rows      int
	cols      []predicate.Column
	pages     []pageSpec
	footerOff int64
	footerLen int64
	size      int64
}

func align8(v int64) int64 { return (v + 7) &^ 7 }

// computeLayout derives the file geometry from the header's claims, with
// widths[i] the slot width of column i. Bounds on rows, cols and widths
// are enforced by the header parser, so the arithmetic here cannot
// overflow int64.
func computeLayout(rows int, cols []predicate.Column, widths []int, headerLen int64) segLayout {
	l := segLayout{rows: rows, cols: cols}
	off := align8(headerLen)
	bmLen := int64(0)
	if rows > 0 {
		bmLen = int64((rows + 7) / 8)
	}
	for i, c := range cols {
		p := pageSpec{off: off, width: widths[i], valLen: int64(rows) * int64(widths[i])}
		if !c.NotNull {
			p.bmLen = bmLen
		}
		l.pages = append(l.pages, p)
		off = align8(p.off + p.dataLen() + 4)
	}
	l.footerOff = off
	l.footerLen = 8 + 24*int64(len(cols))
	l.size = l.footerOff + l.footerLen + trailerLen
	return l
}

// corrupt wraps ErrCorrupt with a description of what disagreed.
func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// encodeSegment serializes rows [lo, hi) of t into the segment format,
// returning the file bytes and the per-column zone maps it embedded. One
// pass over the rows computes the zone maps, which fix the slot widths
// and so the layout; a second encodes the pages.
func encodeSegment(t *engine.Table, lo, hi int) ([]byte, []ZoneMap, error) {
	if lo < 0 || hi < lo || hi > t.NumRows() {
		return nil, nil, fmt.Errorf("storage: row range [%d,%d) outside table of %d rows", lo, hi, t.NumRows())
	}
	cols := t.Schema().Columns()
	if len(cols) == 0 || len(cols) > maxSegmentCols {
		return nil, nil, fmt.Errorf("storage: cannot encode %d columns", len(cols))
	}
	rows := hi - lo

	zones := make([]ZoneMap, len(cols))
	widths := make([]int, len(cols))
	catalog := make([]byte, 0, 32*len(cols))
	for i, c := range cols {
		if len(c.Name) == 0 || len(c.Name) > maxColNameLen {
			return nil, nil, fmt.Errorf("storage: column name %q out of range", c.Name)
		}
		zones[i] = zoneMap(t, c, lo, hi)
		widths[i] = slotWidth(c, zones[i])
		catalog = binary.LittleEndian.AppendUint16(catalog, uint16(len(c.Name)))
		catalog = append(catalog, c.Name...)
		catalog = append(catalog, byte(c.Type), boolByte(c.NotNull), byte(widths[i]))
	}
	headerLen := int64(headerFixedLen + len(catalog) + 4)
	layout := computeLayout(rows, cols, widths, headerLen)

	buf := make([]byte, layout.size)
	copy(buf, segMagic)
	binary.LittleEndian.PutUint64(buf[8:], uint64(rows))
	binary.LittleEndian.PutUint32(buf[16:], uint32(len(cols)))
	binary.LittleEndian.PutUint32(buf[20:], uint32(len(catalog)))
	copy(buf[headerFixedLen:], catalog)
	binary.LittleEndian.PutUint32(buf[headerFixedLen+len(catalog):],
		crc32.ChecksumIEEE(buf[:headerFixedLen+len(catalog)]))

	for i, c := range cols {
		page := layout.pages[i]
		vals := buf[page.off : page.off+page.valLen]
		bm := buf[page.off+page.valLen : page.off+page.dataLen()]
		encodeColumn(t, c, lo, hi, zones[i].base(), page.width, vals, bm)
		binary.LittleEndian.PutUint32(buf[page.off+page.dataLen():],
			crc32.ChecksumIEEE(buf[page.off:page.off+page.dataLen()]))
	}

	footer := buf[layout.footerOff : layout.footerOff+layout.footerLen]
	binary.LittleEndian.PutUint64(footer, uint64(rows))
	for i := range cols {
		binary.LittleEndian.PutUint64(footer[8+24*i:], uint64(zones[i].Min))
		binary.LittleEndian.PutUint64(footer[8+24*i+8:], uint64(zones[i].Max))
		binary.LittleEndian.PutUint64(footer[8+24*i+16:], zones[i].NullCount)
	}
	tr := buf[layout.footerOff+layout.footerLen:]
	binary.LittleEndian.PutUint32(tr, crc32.ChecksumIEEE(footer))
	binary.LittleEndian.PutUint32(tr[4:], uint32(layout.footerLen))
	copy(tr[8:], segEndMagic)
	return buf, zones, nil
}

// zoneMap computes column c's zone map over rows [lo, hi) of t: only
// non-NULL values feed min/max.
func zoneMap(t *engine.Table, c predicate.Column, lo, hi int) ZoneMap {
	zm := ZoneMap{Min: math.MaxInt64, Max: math.MinInt64}
	nulls := t.Nulls(c.Name)
	if nulls != nil {
		nulls = nulls[lo:hi]
	}
	if c.Type.Integral() {
		for i, v := range t.Ints(c.Name)[lo:hi] {
			if nulls != nil && nulls[i] {
				zm.NullCount++
				continue
			}
			zm.Min, zm.Max = min(zm.Min, v), max(zm.Max, v)
		}
	} else {
		fmin, fmax := math.Inf(1), math.Inf(-1)
		for i, v := range t.Reals(c.Name)[lo:hi] {
			if nulls != nil && nulls[i] {
				zm.NullCount++
				continue
			}
			if v < fmin {
				fmin = v
			}
			if v > fmax {
				fmax = v
			}
		}
		zm.Min, zm.Max = int64(math.Float64bits(fmin)), int64(math.Float64bits(fmax))
	}
	zm.HasValues = zm.NullCount < uint64(hi-lo)
	return zm
}

// encodeColumn fills one column page for rows [lo, hi) of t, whose vals
// and bm arrive zeroed: the values as w-byte offsets from base, or as
// float64 bits, and, for a nullable column, the NULL bitmap. A NULL row's
// slot stays 0.
func encodeColumn(t *engine.Table, c predicate.Column, lo, hi int, base int64, w int, vals, bm []byte) {
	nulls := t.Nulls(c.Name)
	if nulls != nil {
		nulls = nulls[lo:hi]
		for i, null := range nulls {
			if null {
				bm[i>>3] |= 1 << (i & 7)
			}
		}
	}
	if !c.Type.Integral() {
		for i, v := range t.Reals(c.Name)[lo:hi] {
			if nulls == nil || !nulls[i] {
				binary.LittleEndian.PutUint64(vals[8*i:], math.Float64bits(v))
			}
		}
		return
	}
	src := t.Ints(c.Name)[lo:hi]
	switch w {
	case 1:
		for i, v := range src {
			if nulls == nil || !nulls[i] {
				vals[i] = byte(v - base)
			}
		}
	case 2:
		for i, v := range src {
			if nulls == nil || !nulls[i] {
				binary.LittleEndian.PutUint16(vals[2*i:], uint16(v-base))
			}
		}
	case 4:
		for i, v := range src {
			if nulls == nil || !nulls[i] {
				binary.LittleEndian.PutUint32(vals[4*i:], uint32(v-base))
			}
		}
	default:
		for i, v := range src {
			if nulls == nil || !nulls[i] {
				binary.LittleEndian.PutUint64(vals[8*i:], uint64(v-base))
			}
		}
	}
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// WriteSegment encodes rows [lo, hi) of t as one segment file at path,
// atomically and durably (tmp + fsync + rename + directory fsync), and
// returns the zone maps it embedded. On error the previous file at path,
// if any, is untouched.
func WriteSegment(path string, t *engine.Table, lo, hi int) ([]ZoneMap, error) {
	buf, zones, err := encodeSegment(t, lo, hi)
	if err != nil {
		return nil, err
	}
	if err := fsatomic.WriteFileBytes(path, buf); err != nil {
		return nil, fmt.Errorf("storage: writing segment: %w", err)
	}
	mBytesWritten.Add(uint64(len(buf)))
	return zones, nil
}

// parseHeader validates the fixed header and catalog held in hdr (which
// must contain at least the full header region) and returns the implied
// layout. totalSize is the file's actual size, cross-checked against the
// layout so a truncated or padded file is rejected before any page read.
func parseHeader(hdr []byte, totalSize int64) (segLayout, error) {
	var zero segLayout
	if int64(len(hdr)) < headerFixedLen {
		return zero, corrupt("file of %d bytes is shorter than the %d-byte fixed header", totalSize, headerFixedLen)
	}
	switch string(hdr[:8]) {
	case segMagic:
	case segMagicV1:
		return zero, corrupt("format version 1 (magic %q) is no longer read; rewrite the segment as %q", segMagicV1, segMagic)
	default:
		return zero, corrupt("bad magic %q (want %q)", hdr[:8], segMagic)
	}
	rows64 := binary.LittleEndian.Uint64(hdr[8:])
	colCount := binary.LittleEndian.Uint32(hdr[16:])
	catalogLen := binary.LittleEndian.Uint32(hdr[20:])
	if rows64 > maxSegmentRows {
		return zero, corrupt("row count %d exceeds the format bound %d", rows64, maxSegmentRows)
	}
	if colCount == 0 || colCount > maxSegmentCols {
		return zero, corrupt("column count %d outside [1,%d]", colCount, maxSegmentCols)
	}
	headerLen := int64(headerFixedLen) + int64(catalogLen) + 4
	if int64(len(hdr)) < headerLen {
		return zero, corrupt("truncated header: %d bytes, catalog claims %d", len(hdr), headerLen)
	}
	wantCRC := binary.LittleEndian.Uint32(hdr[headerFixedLen+int(catalogLen):])
	if got := crc32.ChecksumIEEE(hdr[:headerFixedLen+int(catalogLen)]); got != wantCRC {
		return zero, corrupt("header checksum mismatch (stored %08x, computed %08x)", wantCRC, got)
	}

	catalog := hdr[headerFixedLen : headerFixedLen+int(catalogLen)]
	cols := make([]predicate.Column, 0, colCount)
	widths := make([]int, 0, colCount)
	seen := make(map[string]bool, colCount)
	for i := uint32(0); i < colCount; i++ {
		if len(catalog) < 2 {
			return zero, corrupt("catalog truncated at column %d", i)
		}
		nameLen := int(binary.LittleEndian.Uint16(catalog))
		catalog = catalog[2:]
		if nameLen == 0 || nameLen > maxColNameLen || len(catalog) < nameLen+3 {
			return zero, corrupt("catalog entry %d has name length %d with %d bytes left", i, nameLen, len(catalog))
		}
		name := string(catalog[:nameLen])
		typ := predicate.Type(catalog[nameLen])
		notNull, width := catalog[nameLen+1], int(catalog[nameLen+2])
		catalog = catalog[nameLen+3:]
		if typ != predicate.TypeInteger && typ != predicate.TypeDouble &&
			typ != predicate.TypeDate && typ != predicate.TypeTimestamp {
			return zero, corrupt("column %q has unknown type %d", name, typ)
		}
		if notNull > 1 {
			return zero, corrupt("column %q has bad notNull byte %d", name, notNull)
		}
		if width != 1 && width != 2 && width != 4 && width != 8 {
			return zero, corrupt("column %q has slot width %d (want 1, 2, 4 or 8)", name, width)
		}
		if !typ.Integral() && width != 8 {
			return zero, corrupt("DOUBLE column %q has slot width %d (want 8)", name, width)
		}
		if seen[name] {
			return zero, corrupt("duplicate column %q in catalog", name)
		}
		seen[name] = true
		cols = append(cols, predicate.Column{Name: name, Type: typ, NotNull: notNull == 1})
		widths = append(widths, width)
	}
	if len(catalog) != 0 {
		return zero, corrupt("%d trailing bytes after the last catalog entry", len(catalog))
	}

	layout := computeLayout(int(rows64), cols, widths, headerLen)
	if layout.size != totalSize {
		return zero, corrupt("file is %d bytes, header implies %d (truncated or padded)", totalSize, layout.size)
	}
	return layout, nil
}

// parseFooter validates the footer+trailer bytes (the last
// footerLen+trailerLen bytes of the file) against the layout and returns
// the zone maps. The row-count echo must agree with the header.
func parseFooter(ft []byte, layout segLayout) ([]ZoneMap, error) {
	if int64(len(ft)) != layout.footerLen+trailerLen {
		return nil, corrupt("footer region is %d bytes, want %d", len(ft), layout.footerLen+trailerLen)
	}
	footer := ft[:layout.footerLen]
	tr := ft[layout.footerLen:]
	if string(tr[8:16]) != segEndMagic {
		return nil, corrupt("bad end magic %q (want %q)", tr[8:16], segEndMagic)
	}
	if got := int64(binary.LittleEndian.Uint32(tr[4:])); got != layout.footerLen {
		return nil, corrupt("trailer footer length %d disagrees with catalog-implied %d", got, layout.footerLen)
	}
	wantCRC := binary.LittleEndian.Uint32(tr)
	if got := crc32.ChecksumIEEE(footer); got != wantCRC {
		return nil, corrupt("footer checksum mismatch (stored %08x, computed %08x)", wantCRC, got)
	}
	echo := binary.LittleEndian.Uint64(footer)
	if echo != uint64(layout.rows) {
		return nil, corrupt("footer row count %d disagrees with header row count %d", echo, layout.rows)
	}
	zones := make([]ZoneMap, len(layout.cols))
	for i := range layout.cols {
		zones[i] = ZoneMap{
			Min:       int64(binary.LittleEndian.Uint64(footer[8+24*i:])),
			Max:       int64(binary.LittleEndian.Uint64(footer[8+24*i+8:])),
			NullCount: binary.LittleEndian.Uint64(footer[8+24*i+16:]),
		}
		if zones[i].NullCount > uint64(layout.rows) {
			return nil, corrupt("column %q claims %d NULLs in %d rows", layout.cols[i].Name, zones[i].NullCount, layout.rows)
		}
		zones[i].HasValues = zones[i].NullCount < uint64(layout.rows)
	}
	return zones, nil
}

// decodeTable decodes the verified pages of the catalog columns idx,
// pages[i] holding column i's values+bitmap, into a table named name
// whose arrays come from the engine's column pool and whose overflow
// bounds come from the zone maps.
func (s *Segment) decodeTable(name string, idx []int, pages [][]byte) (*engine.Table, error) {
	cols := make([]predicate.Column, len(idx))
	values := make([]engine.ColumnValues, len(idx))
	for j, i := range idx {
		cols[j] = s.layout.cols[i]
		values[j] = engine.NewColumnValues(cols[j], s.layout.rows)
		values[j].MaxAbs = s.zones[i].maxAbs()
		s.decodeRows(i, pages[i], nil, values[j], 0)
	}
	return engine.NewTableFromColumns(name, predicate.NewSchema(cols...), s.layout.rows, values)
}

// decodeRows decodes the rows sel (every row when nil) of catalog column
// i's verified page into dst from position off, writing every slot of
// dst it covers. It is how a scan writes survivors straight into its
// output columns.
func (s *Segment) decodeRows(i int, page []byte, sel []int, dst engine.ColumnValues, off int) {
	c, p := s.layout.cols[i], s.layout.pages[i]
	n := s.layout.rows
	if sel != nil {
		n = len(sel)
	}
	if c.Type.Integral() {
		decodeInts(dst.Ints[off:off+n], page, p.width, s.zones[i].base(), sel)
	} else {
		decodeFloat64s(dst.Reals[off:off+n], page, sel)
	}
	if c.NotNull {
		return
	}
	bm, nulls := page[p.valLen:], dst.Nulls[off:off+n]
	for i := range nulls {
		r := i
		if sel != nil {
			r = sel[i]
		}
		nulls[i] = bm[r>>3]&(1<<(r&7)) != 0
	}
}

// decodeInts fills dst from the w-byte little-endian offsets in slots sel
// of src (slot i for dst[i] when sel is nil), adding base back — the
// segment scan's innermost decode loop. The width is switched on once,
// outside the row loop.
func decodeInts(dst []int64, src []byte, w int, base int64, sel []int) {
	switch w {
	case 1:
		for i := range dst {
			r := i
			if sel != nil {
				r = sel[i]
			}
			dst[i] = base + int64(src[r])
		}
	case 2:
		for i := range dst {
			r := i
			if sel != nil {
				r = sel[i]
			}
			dst[i] = base + int64(binary.LittleEndian.Uint16(src[2*r:]))
		}
	case 4:
		for i := range dst {
			r := i
			if sel != nil {
				r = sel[i]
			}
			dst[i] = base + int64(binary.LittleEndian.Uint32(src[4*r:]))
		}
	default:
		for i := range dst {
			r := i
			if sel != nil {
				r = sel[i]
			}
			dst[i] = base + int64(binary.LittleEndian.Uint64(src[8*r:]))
		}
	}
}

// decodeFloat64s fills dst from the float64 bit patterns in the 8-byte
// slots sel of src (slot i for dst[i] when sel is nil).
func decodeFloat64s(dst []float64, src []byte, sel []int) {
	for i := range dst {
		r := i
		if sel != nil {
			r = sel[i]
		}
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*r:]))
	}
}

// DecodeSegment decodes a complete in-memory segment image into an engine
// table named name, verifying every checksum. It is the byte-level entry
// point FuzzReadSegment drives; OpenSegment and SegmentTable.Scan are the
// file-level reader built on the same validators.
func DecodeSegment(name string, data []byte) (*engine.Table, error) {
	layout, err := parseHeader(data, int64(len(data)))
	if err != nil {
		return nil, err
	}
	zones, err := parseFooter(data[layout.footerOff:], layout)
	if err != nil {
		return nil, err
	}
	seg := &Segment{layout: layout, zones: zones}
	pages := make([][]byte, len(layout.cols))
	idx := make([]int, len(layout.cols))
	for i, c := range layout.cols {
		idx[i] = i
		page := data[layout.pages[i].off : layout.pages[i].off+layout.pages[i].dataLen()+4]
		if err := verifyPage(c, page); err != nil {
			return nil, err
		}
		pages[i] = page[:len(page)-4]
	}
	t, err := seg.decodeTable(name, idx, pages)
	if err != nil {
		return nil, corrupt("rebuilding table: %v", err)
	}
	return t, nil
}

// verifyPage checks one column page's CRC (page holds values+bitmap+crc).
func verifyPage(c predicate.Column, page []byte) error {
	dataLen := len(page) - 4
	wantCRC := binary.LittleEndian.Uint32(page[dataLen:])
	if got := crc32.ChecksumIEEE(page[:dataLen]); got != wantCRC {
		return corrupt("column %q page checksum mismatch (stored %08x, computed %08x)", c.Name, wantCRC, got)
	}
	return nil
}
