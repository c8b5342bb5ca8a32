//! Plain RAID10 baseline: all disks active, synchronous mirroring.
//!
//! Writes go to both disks of the owning pair in place; reads are
//! balanced across the pair by queue depth. No logging, no destaging, no
//! power management — the energy baseline every figure normalises to.
//!
//! Degraded mode (§III-C): a failed disk's partner — already active in
//! RAID10 — silently absorbs its reads while the replacement rebuilds in
//! the background; writes keep landing on both slots so the replacement
//! accumulates fresh data from the moment it is installed.

use crate::ctx::SimCtx;
use crate::policy::{Policy, PolicyStats};
use crate::recovery::recovery_plan;
use crate::slot::IoSlot;
use rolo_disk::{DiskId, DiskRequest, IoKind, IoOutcome, Priority};
use rolo_obs::LegFlavor;
use rolo_sim::IoMap;
use rolo_trace::{ReqKind, TraceRecord};

/// The RAID10 baseline controller.
#[derive(Debug, Default)]
pub struct Raid10Policy {
    /// sub-request id → (user id, user slab slot).
    io_map: IoMap<(u64, IoSlot)>,
}

impl Raid10Policy {
    /// Creates the baseline controller.
    pub fn new() -> Self {
        Self::default()
    }

    /// Chooses the less-loaded disk of a pair for a read, never a
    /// degraded slot (its replacement does not hold the data yet).
    fn read_target(ctx: &SimCtx, pair: usize) -> DiskId {
        let geo = ctx.geometry();
        let p = geo.primary_disk(pair);
        let m = geo.mirror_disk(pair);
        if ctx.is_degraded(p) {
            return m;
        }
        if ctx.is_degraded(m) {
            return p;
        }
        let load = |d: DiskId| {
            let disk = ctx.disk(d);
            disk.foreground_pending() + usize::from(disk.is_busy())
        };
        if load(m) < load(p) {
            m
        } else {
            p
        }
    }
}

impl Policy for Raid10Policy {
    fn name(&self) -> &'static str {
        "RAID10"
    }

    fn initial_standby(&self, _disk: DiskId) -> bool {
        false
    }

    fn attach(&mut self, _ctx: &mut SimCtx) {}

    fn on_user_request(&mut self, ctx: &mut SimCtx, user_id: u64, rec: &TraceRecord) {
        let exts = ctx
            .geometry()
            .split(rec.offset, rec.bytes)
            .expect("driver keeps requests in range");
        let subs = match rec.kind {
            ReqKind::Write => exts.len() * 2,
            ReqKind::Read => exts.len(),
        };
        let slot = ctx.register_user(user_id, rec.kind, ctx.now, subs as u32);
        for ext in exts {
            match rec.kind {
                ReqKind::Write => {
                    let p = ctx.geometry().primary_disk(ext.pair);
                    let m = ctx.geometry().mirror_disk(ext.pair);
                    for d in [p, m] {
                        let id = ctx.submit(
                            d,
                            IoKind::Write,
                            ext.offset,
                            ext.bytes,
                            Priority::Foreground,
                        );
                        self.io_map.insert(id, (user_id, slot));
                        let flavor = if d == p {
                            LegFlavor::Transfer
                        } else {
                            LegFlavor::MirrorCopy
                        };
                        ctx.tag_io(id, user_id, flavor);
                    }
                }
                ReqKind::Read => {
                    let d = Self::read_target(ctx, ext.pair);
                    let id =
                        ctx.submit(d, IoKind::Read, ext.offset, ext.bytes, Priority::Foreground);
                    self.io_map.insert(id, (user_id, slot));
                    ctx.tag_io(id, user_id, LegFlavor::Transfer);
                }
            }
        }
    }

    fn on_io_complete(&mut self, ctx: &mut SimCtx, _disk: DiskId, req: DiskRequest) {
        let (_, slot) = self
            .io_map
            .remove(&req.id)
            .expect("RAID10 issues only user sub-requests");
        ctx.user_sub_done(slot);
    }

    fn on_io_error(
        &mut self,
        ctx: &mut SimCtx,
        disk: DiskId,
        req: DiskRequest,
        outcome: IoOutcome,
    ) {
        // A failed read — a latent sector error, or any read lost to a
        // dying/degraded slot — is re-served by the mirror copy; every
        // other error (writes, exhausted retries) just closes accounting
        // — the rebuild restores the replacement's copy.
        let (user, slot) = self.io_map[&req.id];
        if let Some(id) = ctx.redirect_read(disk, &req, outcome, user) {
            self.io_map.remove(&req.id);
            self.io_map.insert(id, (user, slot));
            return;
        }
        self.on_io_complete(ctx, disk, req);
    }

    fn on_disk_failure(&mut self, ctx: &mut SimCtx, disk: DiskId) {
        let plan = recovery_plan(crate::config::Scheme::Raid10, ctx.geometry(), disk, 0, &[]);
        let bytes = ctx.geometry().data_region();
        ctx.begin_rebuild(&plan, bytes);
    }

    fn on_spin_up(&mut self, _ctx: &mut SimCtx, _disk: DiskId) {}
    fn on_spin_down(&mut self, _ctx: &mut SimCtx, _disk: DiskId) {}
    fn on_timer(&mut self, _ctx: &mut SimCtx, _token: u64) {}

    fn begin_drain(&mut self, _ctx: &mut SimCtx) {}

    fn is_drained(&self, ctx: &SimCtx) -> bool {
        ctx.outstanding_users() == 0
    }

    fn stats(&self) -> PolicyStats {
        PolicyStats::default()
    }

    fn check_consistency(&self, ctx: &SimCtx) -> Result<(), String> {
        if !self.io_map.is_empty() {
            return Err(format!("{} orphaned sub-requests", self.io_map.len()));
        }
        if ctx.outstanding_users() != 0 {
            return Err(format!(
                "{} user requests unfinished",
                ctx.outstanding_users()
            ));
        }
        Ok(())
    }
}
