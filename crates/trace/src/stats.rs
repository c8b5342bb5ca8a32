//! Trace statistics — the columns of the paper's Tables III and VI.

use crate::record::TraceRecord;
use rolo_sim::Duration;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Aggregate characteristics of a trace, in the units of Table III.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceStats {
    /// Number of records.
    pub requests: u64,
    /// Fraction of requests that are writes.
    pub write_ratio: f64,
    /// Mean arrival rate over the analysed window.
    pub iops: f64,
    /// Mean request size in bytes, over all requests.
    pub avg_req_bytes: f64,
    /// Total bytes written.
    pub bytes_written: u64,
    /// Total bytes read.
    pub bytes_read: u64,
    /// Unique bytes touched by writes (4 KiB granularity) — the "Write
    /// Capacity" column of Table III.
    pub write_footprint: u64,
}

impl TraceStats {
    /// Computes statistics over `records` for a window of `duration`.
    ///
    /// The footprint is tracked at 4 KiB granularity, matching the
    /// alignment of both the generator and the MSR traces.
    pub fn from_records(records: &[TraceRecord], duration: Duration) -> TraceStats {
        const GRAIN: u64 = 4096;
        let mut writes = 0u64;
        let mut bytes_written = 0u64;
        let mut bytes_read = 0u64;
        let mut total_bytes = 0u64;
        let mut blocks: HashSet<u64> = HashSet::new();
        for r in records {
            total_bytes += r.bytes;
            if r.kind.is_write() {
                writes += 1;
                bytes_written += r.bytes;
                let first = r.offset / GRAIN;
                let last = (r.end() - 1) / GRAIN;
                for b in first..=last {
                    blocks.insert(b);
                }
            } else {
                bytes_read += r.bytes;
            }
        }
        let n = records.len() as u64;
        let secs = duration.as_secs_f64();
        TraceStats {
            requests: n,
            write_ratio: if n == 0 {
                0.0
            } else {
                writes as f64 / n as f64
            },
            iops: if secs == 0.0 { 0.0 } else { n as f64 / secs },
            avg_req_bytes: if n == 0 {
                0.0
            } else {
                total_bytes as f64 / n as f64
            },
            bytes_written,
            bytes_read,
            write_footprint: blocks.len() as u64 * GRAIN,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::ReqKind;
    use rolo_sim::SimTime;

    fn rec(t: u64, kind: ReqKind, offset: u64, bytes: u64) -> TraceRecord {
        TraceRecord::new(SimTime::from_secs(t), kind, offset, bytes)
    }

    #[test]
    fn empty_trace() {
        let s = TraceStats::from_records(&[], Duration::from_secs(10));
        assert_eq!(s.requests, 0);
        assert_eq!(s.write_ratio, 0.0);
    }

    #[test]
    fn counts_and_ratios() {
        let recs = vec![
            rec(0, ReqKind::Write, 0, 8192),
            rec(1, ReqKind::Write, 0, 8192), // overwrite
            rec(2, ReqKind::Read, 4096, 4096),
            rec(3, ReqKind::Write, 16384, 4096),
        ];
        let s = TraceStats::from_records(&recs, Duration::from_secs(4));
        assert_eq!(s.requests, 4);
        assert!((s.write_ratio - 0.75).abs() < 1e-12);
        assert_eq!(s.bytes_written, 20480);
        assert_eq!(s.bytes_read, 4096);
        // Unique blocks: {0,1} from the first two writes + {4}.
        assert_eq!(s.write_footprint, 3 * 4096);
        assert!((s.iops - 1.0).abs() < 1e-12);
    }

    #[test]
    fn footprint_spans_partial_blocks() {
        // A write crossing a block boundary touches both blocks.
        let recs = vec![rec(0, ReqKind::Write, 4000, 200)];
        let s = TraceStats::from_records(&recs, Duration::from_secs(1));
        assert_eq!(s.write_footprint, 2 * 4096);
    }
}
