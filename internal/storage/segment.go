package storage

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"time"

	"sia/internal/engine"
	"sia/internal/predicate"
)

// Segment is an opened, validated segment file. Opening reads and checks
// only the header, catalog and footer (a few hundred bytes regardless of
// segment size); the column pages stay on disk until a scan reads the ones
// it needs, so a scan that prunes the segment via its zone maps never pays
// for them. Decoded pages are deliberately not cached: the I/O a pruned
// segment or an unread column avoids is real.
type Segment struct {
	path   string
	layout segLayout
	zones  []ZoneMap // per column, in catalog order
}

// OpenSegment opens and validates the segment file at path: magic, header
// and footer checksums, catalog sanity, the exact file size the header
// implies, and header/footer row-count agreement. Structural damage
// surfaces as an error matching ErrCorrupt; I/O failures pass through.
func OpenSegment(path string) (*Segment, error) {
	start := time.Now()
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("storage: opening segment: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("storage: stating segment: %w", err)
	}
	size := st.Size()
	if size < headerFixedLen+trailerLen {
		return nil, corrupt("%s: file of %d bytes is too small for a segment", path, size)
	}

	fixed := make([]byte, headerFixedLen)
	if _, err := io.ReadFull(f, fixed); err != nil {
		return nil, fmt.Errorf("storage: reading segment header: %w", err)
	}
	headerLen := int64(headerFixedLen) + int64(binary.LittleEndian.Uint32(fixed[20:])) + 4
	if headerLen > size {
		return nil, corrupt("%s: header claims %d bytes in a %d-byte file", path, headerLen, size)
	}
	hdr := make([]byte, headerLen)
	copy(hdr, fixed)
	if _, err := io.ReadFull(f, hdr[headerFixedLen:]); err != nil {
		return nil, fmt.Errorf("storage: reading segment catalog: %w", err)
	}
	layout, err := parseHeader(hdr, size)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}

	ft := make([]byte, layout.footerLen+trailerLen)
	if _, err := f.ReadAt(ft, layout.footerOff); err != nil {
		return nil, fmt.Errorf("storage: reading segment footer: %w", err)
	}
	zones, err := parseFooter(ft, layout)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}

	mBytesRead.Add(uint64(headerLen) + uint64(len(ft)))
	mOpenSeconds.Observe(time.Since(start).Seconds())
	return &Segment{path: path, layout: layout, zones: zones}, nil
}

// NumRows returns the segment's row count.
func (s *Segment) NumRows() int { return s.layout.rows }

// Columns returns the segment's column catalog in file order.
func (s *Segment) Columns() []predicate.Column { return s.layout.cols }

// segScan is one segment's part in a SegmentTable scan.
type segScan struct {
	seg   *Segment
	sel   []int         // surviving rows, ascending; nil when every row survives
	n     int           // survivor count
	off   int           // the survivors' first output row
	pages [][]byte      // verified values+bitmap by catalog position; nil where unread
	spent time.Duration // reading and decoding, without selecting
	err   error
}

// selectRows finds the segment's survivors under prog and reads the pages
// of the catalog columns outCols they are gathered from, opening the file
// at most once.
func (s *segScan) selectRows(name string, prog *predicate.Program, predCols, outCols []int) error {
	if prog != nil {
		set := s.seg.truth(prog)
		if set&canTrue == 0 {
			mSegmentsPruned.Inc()
			return nil
		}
		if set == canTrue { // every row is TRUE: nothing to evaluate
			engine.CountKept(s.seg.NumRows())
			prog = nil
		}
	}
	s.n = s.seg.NumRows()
	if s.n == 0 || prog == nil && len(outCols) == 0 {
		return nil
	}
	start := time.Now()
	f, err := os.Open(s.seg.path)
	if err != nil {
		return fmt.Errorf("storage: opening segment: %w", err)
	}
	defer f.Close()
	s.pages = make([][]byte, len(s.seg.Columns()))
	read := func(cols []int) error { // read and verify the pages not yet read
		for _, i := range cols {
			if s.pages[i] != nil {
				continue
			}
			page := s.seg.layout.pages[i]
			buf := pagePool.Get(int(page.dataLen() + 4))
			if _, err := f.ReadAt(buf, page.off); err != nil {
				return fmt.Errorf("storage: reading segment page: %w", err)
			}
			mBytesRead.Add(uint64(len(buf)))
			if err := verifyPage(s.seg.Columns()[i], buf); err != nil {
				return fmt.Errorf("%s: %w", s.seg.path, err)
			}
			s.pages[i] = buf[:page.dataLen()]
		}
		return nil
	}
	if prog != nil {
		if err := read(predCols); err != nil {
			return err
		}
		t, err := s.seg.decodeTable(name, predCols, s.pages)
		if err != nil {
			return err
		}
		s.spent = time.Since(start)
		s.sel = engine.SelectRows(t, prog, 1)
		engine.Release(t)
		s.n = len(s.sel)
		start = time.Now()
	}
	if s.n > 0 {
		err = read(outCols)
	}
	s.spent += time.Since(start)
	return err
}

// gather decodes the survivors into values from row off on, and records
// the segment, if any page of it was read, as scanned with one decode.
func (s *segScan) gather(outCols []int, values []engine.ColumnValues) {
	start := time.Now()
	for j, i := range outCols {
		if s.n > 0 { // then every page of outCols was read
			s.seg.decodeRows(i, s.pages[i], s.sel, values[j], s.off)
		}
	}
	scanned := false
	for _, p := range s.pages {
		if p != nil {
			scanned = true
			pagePool.Put(p)
		}
	}
	if scanned {
		mSegmentsScanned.Inc()
		mDecodeSeconds.Observe((s.spent + time.Since(start)).Seconds())
	}
}

// pagePool recycles page buffers: a scan decodes every page it reads
// before it returns, so none is referenced afterwards, and a fresh buffer
// costs a zeroing pass that the read overwrites.
var pagePool engine.SlicePool[byte]
