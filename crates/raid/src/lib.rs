#![warn(missing_docs)]
//! RAID10 striping and mirroring layout.
//!
//! A RAID10 array is `n` mirrored pairs `(P_i, M_i)`. The logical address
//! space is striped round-robin across the pairs in fixed stripe units
//! (16/32/64 KB in the paper); each stripe unit is mirrored on both disks
//! of its pair.
//!
//! Following the paper's free-space model (§III-E), each disk is divided
//! into a **data region** (the RAID10 image, at the front) and a **logger
//! region** (the unused capacity at the back) which the RoLo controllers
//! appropriate as logging space. This crate handles the geometry: mapping
//! logical extents to `(pair, disk offset)` extents and splitting requests
//! that straddle stripe boundaries.
//!
//! # Example
//!
//! ```
//! use rolo_raid::ArrayGeometry;
//!
//! let geo = ArrayGeometry::new(4, 64 * 1024, 10 << 30, 8 << 30)?;
//! assert_eq!(geo.logical_capacity(), 4 * (10u64 << 30));
//! let ext = geo.map(64 * 1024, 4096)?;
//! assert_eq!(ext.pair, 1); // second stripe unit lands on pair 1
//! assert_eq!(geo.primary_disk(ext.pair), 1);
//! assert_eq!(geo.mirror_disk(ext.pair), 5);
//! # Ok::<(), rolo_raid::GeometryError>(())
//! ```

pub mod geometry;

pub use geometry::{ArrayGeometry, DiskRole, GeometryError, PhysExtent, Split};
