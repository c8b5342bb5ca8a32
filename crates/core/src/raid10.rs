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
use rolo_disk::{DiskId, DiskRequest, IoKind, IoOutcome};
use rolo_obs::LegFlavor;
use rolo_sim::{IoSlab, IoSlot};
use rolo_trace::{ReqKind, TraceRecord};

/// The RAID10 baseline controller.
#[derive(Debug, Default)]
pub struct Raid10Policy {
    /// Per sub-request, under the slot its `DiskRequest` carries: the
    /// context's user slot.
    tags: IoSlab<IoSlot>,
}

impl Raid10Policy {
    /// Creates the baseline controller.
    pub fn new() -> Self {
        Self::default()
    }

    /// Chooses the less-loaded disk of a pair for a read. A degraded
    /// choice is [`SimCtx::route_read`]'s to redirect.
    fn read_choice(ctx: &SimCtx, pair: usize) -> DiskId {
        let geo = ctx.geometry();
        let p = geo.primary_disk(pair);
        let m = geo.mirror_disk(pair);
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

    fn on_user_request(&mut self, ctx: &mut SimCtx, user_id: u64, rec: &TraceRecord) {
        let exts = ctx
            .geometry()
            .split(rec.offset, rec.bytes)
            .expect("driver keeps requests in range");
        let user = ctx.register_user(user_id, rec.kind);
        for ext in exts {
            let extent = (ext.offset, ext.bytes);
            match rec.kind {
                ReqKind::Write => {
                    let p = ctx.geometry().primary_disk(ext.pair);
                    let m = ctx.geometry().mirror_disk(ext.pair);
                    for (d, flavor) in [(p, LegFlavor::Transfer), (m, LegFlavor::MirrorCopy)] {
                        let tag = self.tags.insert(user);
                        ctx.submit_user(user, tag, d, IoKind::Write, extent, flavor);
                    }
                }
                ReqKind::Read => {
                    let (d, flavor) = ctx.route_read(Self::read_choice(ctx, ext.pair));
                    let tag = self.tags.insert(user);
                    ctx.submit_user(user, tag, d, IoKind::Read, extent, flavor);
                }
            }
        }
    }

    fn on_io_complete(&mut self, ctx: &mut SimCtx, _disk: DiskId, req: DiskRequest) {
        let user = self.tags.remove(req.tag).expect("unknown sub-request");
        ctx.user_sub_done(user);
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
        let &user = self.tags.get(req.tag).expect("unknown sub-request");
        if !ctx.redirect_read(disk, &req, outcome, user) {
            self.on_io_complete(ctx, disk, req);
        }
    }

    fn on_disk_failure(&mut self, ctx: &mut SimCtx, disk: DiskId) {
        let plan = recovery_plan(crate::config::Scheme::Raid10, ctx.geometry(), disk, 0, &[]);
        let bytes = ctx.geometry().data_region();
        ctx.begin_rebuild(&plan, bytes);
    }

    fn begin_drain(&mut self, _ctx: &mut SimCtx) {}

    fn is_drained(&self, _ctx: &SimCtx) -> bool {
        true
    }

    fn stats(&self) -> PolicyStats {
        PolicyStats::default()
    }

    fn check_consistency(&self, _ctx: &SimCtx) -> Result<(), String> {
        if !self.tags.is_empty() {
            return Err(format!("{} orphaned sub-requests", self.tags.len()));
        }
        Ok(())
    }
}
