//! In-place RAID5 baseline: the classic small-write read-modify-write.
//!
//! Each sub-stripe write performs read-old-data + read-old-parity, then
//! write-data + write-parity (two dependent phases). Reads are single
//! I/Os. All disks stay ACTIVE/IDLE (every spindle holds data).

use crate::geometry::Raid5Geometry;
use rolo_core::ctx::SimCtx;
use rolo_core::policy::{Policy, PolicyStats};
use rolo_disk::{DiskId, DiskRequest, IoKind, Priority};
use rolo_sim::{IoSlab, IoSlot};
use rolo_trace::{ReqKind, TraceRecord};

#[derive(Debug, Clone, Copy)]
enum Tag {
    /// Direct user sub-request (reads).
    User(IoSlot),
    /// Phase-1 read of the RMW chain in this `chains` slot.
    ChainRead(IoSlot),
    /// Phase-2 write of the RMW chain in this `chains` slot.
    ChainWrite(IoSlot),
}

#[derive(Debug)]
struct Chain {
    user: IoSlot,
    data_disk: DiskId,
    data_offset: u64,
    parity_disk: DiskId,
    parity_offset: u64,
    bytes: u64,
    reads_left: u8,
    writes_left: u8,
}

/// The in-place RAID5 controller.
#[derive(Debug)]
pub struct Raid5Policy {
    geometry: Raid5Geometry,
    /// Per sub-request, under the slot its `DiskRequest` carries.
    tags: IoSlab<Tag>,
    chains: IoSlab<Chain>,
}

impl Raid5Policy {
    /// Creates the baseline controller over `geometry`.
    pub fn new(geometry: Raid5Geometry) -> Self {
        Raid5Policy {
            geometry,
            tags: IoSlab::new(),
            chains: IoSlab::new(),
        }
    }

    /// The RAID5 geometry in use.
    pub fn geometry(&self) -> &Raid5Geometry {
        &self.geometry
    }
}

impl Policy for Raid5Policy {
    fn name(&self) -> &'static str {
        "RAID5"
    }

    fn initial_standby(&self, _disk: DiskId) -> bool {
        false
    }

    fn on_user_request(&mut self, ctx: &mut SimCtx, user_id: u64, rec: &TraceRecord) {
        let capacity = self.geometry.logical_capacity();
        let bytes = rec.bytes.min(capacity);
        let offset = rec.offset.min(capacity - bytes);
        let exts = self.geometry.split(offset, bytes);
        let uslot = ctx.register_user(user_id, rec.kind);
        ctx.add_user_subs(uslot, exts.len() as u32);
        match rec.kind {
            ReqKind::Read => {
                for e in exts {
                    let tag = self.tags.insert(Tag::User(uslot));
                    let (d, off, len) = (e.data_disk, e.offset, e.bytes);
                    ctx.submit(d, IoKind::Read, off, len, Priority::Foreground, tag);
                }
            }
            ReqKind::Write => {
                // One RMW chain per extent; the user completes when every
                // chain's phase-2 writes land.
                for e in exts {
                    let chain = self.chains.insert(Chain {
                        user: uslot,
                        data_disk: e.data_disk,
                        data_offset: e.offset,
                        parity_disk: e.parity_disk,
                        parity_offset: e.parity_offset,
                        bytes: e.bytes,
                        reads_left: 2,
                        writes_left: 2,
                    });
                    for (d, off) in [(e.data_disk, e.offset), (e.parity_disk, e.parity_offset)] {
                        let tag = self.tags.insert(Tag::ChainRead(chain));
                        ctx.submit(d, IoKind::Read, off, e.bytes, Priority::Foreground, tag);
                    }
                }
            }
        }
    }

    fn on_io_complete(&mut self, ctx: &mut SimCtx, _disk: DiskId, req: DiskRequest) {
        match self.tags.remove(req.tag).expect("unknown sub-request") {
            Tag::User(user) => {
                ctx.user_sub_done(user);
            }
            Tag::ChainRead(chain_id) => {
                let chain = self.chains.get_mut(chain_id).expect("chain exists");
                chain.reads_left -= 1;
                if chain.reads_left == 0 {
                    let (dd, doff, pd, poff, len) = (
                        chain.data_disk,
                        chain.data_offset,
                        chain.parity_disk,
                        chain.parity_offset,
                        chain.bytes,
                    );
                    for (d, off) in [(dd, doff), (pd, poff)] {
                        let tag = self.tags.insert(Tag::ChainWrite(chain_id));
                        ctx.submit(d, IoKind::Write, off, len, Priority::Foreground, tag);
                    }
                }
            }
            Tag::ChainWrite(chain_id) => {
                let chain = self.chains.get_mut(chain_id).expect("chain exists");
                chain.writes_left -= 1;
                if chain.writes_left == 0 {
                    let user = chain.user;
                    self.chains.remove(chain_id);
                    ctx.user_sub_done(user);
                }
            }
        }
    }

    fn begin_drain(&mut self, _ctx: &mut SimCtx) {}

    fn is_drained(&self, _ctx: &SimCtx) -> bool {
        self.chains.is_empty()
    }

    fn stats(&self) -> PolicyStats {
        PolicyStats::default()
    }

    fn check_consistency(&self, _ctx: &SimCtx) -> Result<(), String> {
        if !self.chains.is_empty() {
            return Err(format!("{} RMW chains still open", self.chains.len()));
        }
        if !self.tags.is_empty() {
            return Err(format!("{} orphaned sub-requests", self.tags.len()));
        }
        Ok(())
    }
}
