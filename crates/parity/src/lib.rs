#![warn(missing_docs)]
//! RoLo on parity-based storage — the paper's stated future work (§VII:
//! *"A study on the feasibility and efficiency of RoLo deployed in
//! parity-based storage systems will be conducted as our future work"*).
//!
//! On RAID5 the pain point is not idle mirrors (every disk holds data and
//! must keep spinning) but the **small-write penalty**: each in-place
//! write needs read-old-data, read-old-parity, write-data, write-parity —
//! four mostly random I/Os, two of them on the parity disk of the stripe.
//!
//! [`Rolo5Policy`] transplants RoLo's two mechanisms:
//!
//! * **rotated logging** — the free space of *all* array disks forms the
//!   logical logging pool; one on-duty logger at a time absorbs
//!   parity-update deltas as sequential appends (the write path becomes
//!   read-old + write-new on the data disk plus one sequential append);
//! * **decentralized destaging** — pending parity updates are applied
//!   (read-parity + write-parity) as background I/O in idle slots, per
//!   parity disk; when a parity disk's backlog drains, every delta
//!   segment destined for it — wherever it sits in the pool — is stale
//!   and is reclaimed, letting the logger rotate indefinitely.
//!
//! [`Raid5Policy`] is the in-place read-modify-write baseline. Both run
//! on the same driver/disk substrate as the RAID10 schemes, so the
//! comparison isolates the logging architecture. `paper parity_study` in
//! `rolo-bench` reports the comparison.

pub mod geometry;
pub mod raid5;
pub mod rolo5;

pub use geometry::{Raid5Extent, Raid5Geometry, Raid5Split};
pub use raid5::Raid5Policy;
pub use rolo5::Rolo5Policy;
