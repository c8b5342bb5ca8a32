//! The destage chain the logging controllers share (DESIGN.md §10). A
//! unit (a pair, or a RoLo-5 parity disk) copies one stale run at a
//! time: a read from a source disk, then a write to each of one or two
//! targets at the run's offset. The controller decides when a unit may
//! take a run and names its source and targets.

use crate::ctx::SimCtx;
use crate::policy::PolicyStats;
use rolo_disk::{DiskId, IoKind, Priority};
use rolo_sim::IoSlot;

/// A run in flight, its write targets stored inline.
#[derive(Debug, Clone, Copy)]
struct Run {
    off: u64,
    len: u64,
    targets: [DiskId; 2],
    targets_len: u8,
    /// Writes still to land; 0 while the read is in flight.
    writes_left: u8,
}

/// At most one destage run in flight per unit, and the bytes the
/// finished runs copied.
#[derive(Debug)]
pub struct DestageChains {
    runs: Vec<Option<Run>>,
    destaged_bytes: u64,
}

impl DestageChains {
    /// Idle chains for `units` units.
    pub fn new(units: usize) -> Self {
        DestageChains {
            runs: vec![None; units],
            destaged_bytes: 0,
        }
    }

    /// True while `unit` has a run in flight.
    pub fn is_busy(&self, unit: usize) -> bool {
        self.runs[unit].is_some()
    }

    /// True while any unit has a run in flight.
    pub fn any_busy(&self) -> bool {
        self.runs.iter().any(Option::is_some)
    }

    /// `unit`'s run `(off, len)` while its read is in flight.
    pub fn reading(&self, unit: usize) -> Option<(u64, u64)> {
        let run = self.runs[unit].filter(|r| r.writes_left == 0)?;
        Some((run.off, run.len))
    }

    /// Starts `unit`'s chain on the run `(off, len)` and reads it from
    /// `src` under `tag`; its writes go to `targets`, one or two disks.
    /// Panics if `unit` already has a run.
    pub fn start(
        &mut self,
        ctx: &mut SimCtx,
        unit: usize,
        (off, len): (u64, u64),
        src: (DiskId, u64),
        targets: &[DiskId],
        tag: IoSlot,
    ) {
        assert!(self.runs[unit].is_none(), "unit {unit} already has a run");
        assert!((1..=2).contains(&targets.len()), "one or two write targets");
        let mut inline = [0; 2];
        inline[..targets.len()].copy_from_slice(targets);
        self.runs[unit] = Some(Run {
            off,
            len,
            targets: inline,
            targets_len: targets.len() as u8,
            writes_left: 0,
        });
        self.read_from(ctx, unit, src, tag);
    }

    /// Submits the read of `unit`'s run from `src`, a `(disk, offset)`,
    /// under `tag`: at the start, and again to re-read a failed read.
    pub fn read_from(&mut self, ctx: &mut SimCtx, unit: usize, src: (DiskId, u64), tag: IoSlot) {
        let (_, len) = self.reading(unit).expect("a read in flight");
        ctx.submit(src.0, IoKind::Read, src.1, len, Priority::Background, tag);
    }

    /// One of `unit`'s I/Os completed. After the read, writes the run to
    /// its targets in order, each under a slot from `slot`; after the
    /// last write, counts the run's bytes and returns true: the unit is
    /// idle.
    pub fn complete(
        &mut self,
        ctx: &mut SimCtx,
        unit: usize,
        mut slot: impl FnMut() -> IoSlot,
    ) -> bool {
        let run = self.runs[unit].as_mut().expect("a run in flight");
        let (off, len) = (run.off, run.len);
        if run.writes_left == 0 {
            run.writes_left = run.targets_len;
            for &d in &run.targets[..usize::from(run.targets_len)] {
                ctx.submit(d, IoKind::Write, off, len, Priority::Background, slot());
            }
            return false;
        }
        run.writes_left -= 1;
        if run.writes_left > 0 {
            return false;
        }
        self.destaged_bytes += len;
        self.runs[unit] = None;
        true
    }

    /// `stats` with the destaged bytes folded in.
    pub fn fold_stats(&self, mut stats: PolicyStats) -> PolicyStats {
        stats.destaged_bytes = self.destaged_bytes;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Scheme, SimConfig};
    use rolo_obs::{SimEvent, TraceSink};
    use rolo_sim::{IoSlab, SimTime};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// A dispatched I/O: `(disk, kind, offset, bytes)`.
    type Dispatch = (DiskId, IoKind, u64, u64);

    /// Records every dispatch into a list the test keeps a handle on.
    #[derive(Debug)]
    struct Dispatches(Rc<RefCell<Vec<Dispatch>>>);

    impl TraceSink for Dispatches {
        fn enabled(&self) -> bool {
            true
        }

        fn record(&mut self, _at: SimTime, event: SimEvent) {
            if let SimEvent::RequestDispatch {
                disk,
                kind,
                offset,
                bytes,
                ..
            } = event
            {
                self.0.borrow_mut().push((disk, kind, offset, bytes));
            }
        }

        fn name(&self) -> &'static str {
            "dispatches"
        }
    }

    /// A 2-pair context whose dispatches land in the returned list.
    fn ctx() -> (SimCtx, Rc<RefCell<Vec<Dispatch>>>) {
        let cfg = SimConfig::paper_default(Scheme::RoloE, 2);
        let geo = cfg.geometry().expect("valid geometry");
        let standby = vec![false; cfg.disk_count()];
        let log = Rc::new(RefCell::new(Vec::new()));
        let sink = Box::new(Dispatches(Rc::clone(&log)));
        (SimCtx::with_sink(&cfg, geo, &standby, sink), log)
    }

    fn taken(log: &Rc<RefCell<Vec<Dispatch>>>) -> Vec<Dispatch> {
        std::mem::take(&mut *log.borrow_mut())
    }

    #[test]
    fn a_run_reads_once_then_writes_each_target_in_order() {
        let (mut ctx, log) = ctx();
        let mut slots = IoSlab::new();
        let mut chains = DestageChains::new(2);
        let read = slots.insert(1);
        chains.start(&mut ctx, 1, (8192, 4096), (0, 1 << 20), &[1, 3], read);
        assert_eq!(taken(&log), [(0, IoKind::Read, 1 << 20, 4096)]);
        assert!(chains.is_busy(1) && !chains.is_busy(0) && chains.any_busy());
        assert_eq!(chains.reading(1), Some((8192, 4096)));
        // The read lands: both writes go out, in target order.
        assert!(!chains.complete(&mut ctx, 1, || slots.insert(1)));
        let writes = [
            (1, IoKind::Write, 8192, 4096),
            (3, IoKind::Write, 8192, 4096),
        ];
        assert_eq!(taken(&log), writes);
        assert_eq!(slots.len(), 3);
        assert_eq!(chains.reading(1), None);
        // The run counts once, as the unit goes idle at its last write.
        assert!(!chains.complete(&mut ctx, 1, || unreachable!()));
        assert!(chains.is_busy(1) && chains.any_busy());
        assert_eq!(chains.fold_stats(PolicyStats::default()).destaged_bytes, 0);
        assert!(chains.complete(&mut ctx, 1, || unreachable!()));
        assert!(!chains.is_busy(1) && !chains.any_busy());
        assert_eq!(
            chains.fold_stats(PolicyStats::default()).destaged_bytes,
            4096
        );
        assert!(taken(&log).is_empty());
    }

    #[test]
    fn one_target_and_units_run_independently() {
        let (mut ctx, log) = ctx();
        let mut chains = DestageChains::new(2);
        chains.start(&mut ctx, 0, (0, 512), (0, 0), &[2], IoSlot::DANGLING);
        chains.start(&mut ctx, 1, (0, 1024), (1, 0), &[3], IoSlot::DANGLING);
        assert!(!chains.complete(&mut ctx, 0, || IoSlot::DANGLING));
        assert!(chains.complete(&mut ctx, 0, || unreachable!()));
        // Unit 1 is still busy, so the array is too.
        assert!(!chains.is_busy(0) && chains.is_busy(1) && chains.any_busy());
        assert!(!chains.complete(&mut ctx, 1, || IoSlot::DANGLING));
        assert!(chains.complete(&mut ctx, 1, || unreachable!()));
        assert!(!chains.any_busy());
        let stats = chains.fold_stats(PolicyStats {
            destage_cycles: 7,
            ..PolicyStats::default()
        });
        assert_eq!((stats.destaged_bytes, stats.destage_cycles), (1536, 7));
        let kinds: Vec<_> = taken(&log).iter().map(|d| (d.0, d.1)).collect();
        let (read, write) = (IoKind::Read, IoKind::Write);
        assert_eq!(kinds, [(0, read), (1, read), (2, write), (3, write)]);
    }

    #[test]
    fn a_reread_keeps_its_run_and_slot() {
        let (mut ctx, log) = ctx();
        let mut chains = DestageChains::new(1);
        let tag = IoSlab::new().insert(());
        chains.start(&mut ctx, 0, (4096, 2048), (0, 100), &[0, 2], tag);
        chains.read_from(&mut ctx, 0, (2, 300), tag);
        assert_eq!(
            taken(&log),
            [(0, IoKind::Read, 100, 2048), (2, IoKind::Read, 300, 2048)]
        );
        assert_eq!(chains.reading(0), Some((4096, 2048)));
        // The re-read's completion moves the chain on to its writes.
        assert!(!chains.complete(&mut ctx, 0, || tag));
        assert_eq!(taken(&log).len(), 2);
    }

    #[test]
    #[should_panic(expected = "already has a run")]
    fn a_unit_holds_at_most_one_run() {
        let (mut ctx, _log) = ctx();
        let mut chains = DestageChains::new(1);
        chains.start(&mut ctx, 0, (0, 512), (0, 0), &[2], IoSlot::DANGLING);
        chains.start(&mut ctx, 0, (512, 512), (0, 512), &[2], IoSlot::DANGLING);
    }
}
