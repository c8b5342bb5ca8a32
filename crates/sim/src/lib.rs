#![warn(missing_docs)]
//! Discrete-event simulation engine for the RoLo storage simulator.
//!
//! This crate provides the substrate that the disk model, RAID layer and
//! logging controllers are built on: a microsecond-resolution simulated
//! clock ([`SimTime`], [`Duration`]), a deterministic calendar event
//! queue ([`CalendarQueue`], with the binary-heap [`EventQueue`] kept as
//! its differential reference), seeded random-number plumbing ([`rng`]),
//! the generational slab ([`IoSlab`]) that in-flight request state lives
//! in with the [`SlotTable`] that keeps values beside it, and the
//! disjoint byte-extent map ([`ExtentMap`]) the layers above
//! keep their stale, free, live and corrupt extents in.
//!
//! The engine is deliberately *not* generic over an event trait object
//! dispatch framework; higher layers drive their own state machines and use
//! the queue as an ordered timeline of opaque tokens. This keeps the hot
//! path monomorphic and the ownership story simple (no `Rc<RefCell<..>>`
//! webs), which matters when replaying multi-million-request traces.
//!
//! # Example
//!
//! ```
//! use rolo_sim::{CalendarQueue, SimTime, Duration};
//!
//! let mut q: CalendarQueue<&'static str> = CalendarQueue::new();
//! q.schedule(SimTime::ZERO + Duration::from_millis(5), "later");
//! q.schedule(SimTime::ZERO, "now");
//! assert_eq!(q.pop().map(|e| e.payload), Some("now"));
//! assert_eq!(q.pop().map(|e| e.payload), Some("later"));
//! assert!(q.pop().is_none());
//! ```

pub mod calendar;
pub mod extent;
pub mod fastmap;
pub mod queue;
pub mod rng;
pub mod schedule;
pub mod slot;
pub mod time;

pub use calendar::CalendarQueue;
pub use extent::ExtentMap;
pub use fastmap::{IdHasher, IoMap};
pub use queue::{EventQueue, ScheduledEvent};
pub use rng::SimRng;
pub use slot::{IoSlab, IoSlot, SlotTable};
pub use time::{Duration, SimTime};
