package storage

import "sia/internal/obs"

// Process-wide storage counters, registered in the default obs registry so
// they export alongside the engine and serving metrics. Scan paths bump
// them unconditionally; the benchmark harness reads Snapshot() deltas to
// report per-experiment pruning effectiveness.
var (
	mSegmentsScanned = obs.Default().Counter("sia_storage_segments_scanned_total",
		"Segments of which a scan read at least one column page.")
	mSegmentsPruned = obs.Default().Counter("sia_storage_segments_pruned_total",
		"Segments skipped entirely because zone maps refuted the pushed-down predicate.")
	mBytesRead = obs.Default().Counter("sia_storage_bytes_read_total",
		"Bytes of segment files read from disk (headers, footers and the column pages scans read).")
	mBytesWritten = obs.Default().Counter("sia_storage_bytes_written_total",
		"Bytes of segment files written to disk.")
	mOpenSeconds = obs.Default().Histogram("sia_storage_segment_open_seconds",
		"Latency of opening a segment (header + footer read and validation).", obs.DurationBuckets())
	mDecodeSeconds = obs.Default().Histogram("sia_storage_segment_decode_seconds",
		"Per scanned segment, time spent reading, verifying and decoding its pages (predicate evaluation excluded).", obs.DurationBuckets())
)

// CounterSnapshot is a point-in-time copy of the storage counters. Two
// snapshots subtract to give per-interval activity.
type CounterSnapshot struct {
	SegmentsScanned uint64 `json:"segments_scanned"`
	SegmentsPruned  uint64 `json:"segments_pruned"`
	BytesRead       uint64 `json:"bytes_read"`
	BytesWritten    uint64 `json:"bytes_written"`
}

// SnapshotCounters reads the current storage counter values.
func SnapshotCounters() CounterSnapshot {
	return CounterSnapshot{
		SegmentsScanned: mSegmentsScanned.Value(),
		SegmentsPruned:  mSegmentsPruned.Value(),
		BytesRead:       mBytesRead.Value(),
		BytesWritten:    mBytesWritten.Value(),
	}
}

// Sub returns the counter deltas s−prev (component-wise).
func (s CounterSnapshot) Sub(prev CounterSnapshot) CounterSnapshot {
	return CounterSnapshot{
		SegmentsScanned: s.SegmentsScanned - prev.SegmentsScanned,
		SegmentsPruned:  s.SegmentsPruned - prev.SegmentsPruned,
		BytesRead:       s.BytesRead - prev.BytesRead,
		BytesWritten:    s.BytesWritten - prev.BytesWritten,
	}
}
