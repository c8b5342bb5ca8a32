//! Disk power states and energy accounting (Dempsey-style).
//!
//! The meter integrates energy as `power(state) × residency` plus the fixed
//! per-transition energies from the datasheet. State residencies are also
//! kept separately because several of the paper's figures (Fig. 3, Fig. 2b)
//! report time-in-state proportions rather than joules.

use crate::params::DiskParams;
use rolo_sim::{Duration, SimTime};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Power state of a disk.
///
/// `Active` means the disk is servicing a request; `Idle` means spun up
/// with an empty queue; `Standby` means spun down. The two transition
/// states consume their datasheet transition energy rather than a
/// state power.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PowerState {
    /// Servicing a request.
    Active,
    /// Spun up, queue empty.
    Idle,
    /// Spun down.
    Standby,
    /// In the spin-up transition.
    SpinningUp,
    /// In the spin-down transition.
    SpinningDown,
}

impl PowerState {
    /// True if the platters are (or are becoming) spun up enough to accept
    /// service without a fresh spin-up.
    pub fn is_spun_up(self) -> bool {
        matches!(self, PowerState::Active | PowerState::Idle)
    }
}

impl fmt::Display for PowerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PowerState::Active => "ACTIVE",
            PowerState::Idle => "IDLE",
            PowerState::Standby => "STANDBY",
            PowerState::SpinningUp => "SPIN-UP",
            PowerState::SpinningDown => "SPIN-DOWN",
        };
        f.write_str(s)
    }
}

/// Per-disk energy and state-residency accounting.
///
/// # Example
///
/// ```
/// use rolo_disk::{DiskParams, EnergyMeter, PowerState};
/// use rolo_sim::{Duration, SimTime};
///
/// let params = DiskParams::ultrastar_36z15();
/// let mut m = EnergyMeter::new(&params, PowerState::Idle, SimTime::ZERO);
/// m.transition(PowerState::Active, SimTime::from_secs(10));
/// let report = m.report(SimTime::from_secs(20), &params);
/// // 10 s idle at 10.2 W + 10 s active at 13.5 W
/// assert!((report.total_joules - (102.0 + 135.0)).abs() < 1e-6);
/// ```
#[derive(Debug, Clone)]
pub struct EnergyMeter {
    state: PowerState,
    state_since: SimTime,
    /// Accumulated residency per state, indexed by [`state_index`].
    residency: [Duration; 5],
    /// Joules from completed residencies and transitions.
    joules: f64,
    spin_ups: u64,
    spin_downs: u64,
    power: [f64; 5],
}

fn state_index(s: PowerState) -> usize {
    match s {
        PowerState::Active => 0,
        PowerState::Idle => 1,
        PowerState::Standby => 2,
        PowerState::SpinningUp => 3,
        PowerState::SpinningDown => 4,
    }
}

impl EnergyMeter {
    /// Creates a meter for a disk whose initial state is `initial` at time
    /// `now`.
    pub fn new(params: &DiskParams, initial: PowerState, now: SimTime) -> Self {
        // Transition states draw their fixed energy (added on entry), so
        // their state power is zero.
        let power = [
            params.power_active_w,
            params.power_idle_w,
            params.power_standby_w,
            0.0,
            0.0,
        ];
        EnergyMeter {
            state: initial,
            state_since: now,
            residency: [Duration::ZERO; 5],
            joules: 0.0,
            spin_ups: 0,
            spin_downs: 0,
            power,
        }
    }

    /// Current power state.
    pub fn state(&self) -> PowerState {
        self.state
    }

    /// Instant the current state was entered.
    pub fn state_since(&self) -> SimTime {
        self.state_since
    }

    /// Moves the meter to `next` at time `now`, closing the books on the
    /// previous state. Entering a transition state charges its fixed
    /// energy and bumps the corresponding spin counter.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `now` precedes the current state's entry
    /// time.
    pub fn transition(&mut self, next: PowerState, now: SimTime) {
        debug_assert!(
            now >= self.state_since,
            "time went backwards in EnergyMeter"
        );
        let held = now.since(self.state_since);
        let idx = state_index(self.state);
        self.residency[idx] += held;
        self.joules += self.power[idx] * held.as_secs_f64();
        match next {
            PowerState::SpinningUp => {
                self.spin_ups += 1;
            }
            PowerState::SpinningDown => {
                self.spin_downs += 1;
            }
            _ => {}
        }
        self.state = next;
        self.state_since = now;
    }

    /// Charges the fixed transition energy for the transition state being
    /// *left*. Called by the disk when a spin-up/-down completes.
    pub(crate) fn charge_transition_energy(&mut self, joules: f64) {
        self.joules += joules;
    }

    /// Number of completed spin-up transitions so far.
    pub fn spin_ups(&self) -> u64 {
        self.spin_ups
    }

    /// Number of completed spin-down transitions so far.
    pub fn spin_downs(&self) -> u64 {
        self.spin_downs
    }

    /// Snapshot of energy and residency up to `now` (the current state's
    /// partial residency is included; the meter itself is not modified).
    pub fn report(&self, now: SimTime, params: &DiskParams) -> DiskEnergyReport {
        let _ = params; // power already captured at construction
        debug_assert!(now >= self.state_since);
        let mut residency = self.residency;
        let idx = state_index(self.state);
        let held = now.since(self.state_since);
        residency[idx] += held;
        let total_joules = self.joules + self.power[idx] * held.as_secs_f64();
        DiskEnergyReport {
            total_joules,
            active: residency[0],
            idle: residency[1],
            standby: residency[2],
            spinning_up: residency[3],
            spinning_down: residency[4],
            spin_ups: self.spin_ups,
            spin_downs: self.spin_downs,
        }
    }
}

/// Energy/residency snapshot for one disk.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct DiskEnergyReport {
    /// Total energy consumed (J), including transition energies.
    pub total_joules: f64,
    /// Time spent servicing requests.
    pub active: Duration,
    /// Time spent spun up but idle.
    pub idle: Duration,
    /// Time spent spun down.
    pub standby: Duration,
    /// Time spent in spin-up transitions.
    pub spinning_up: Duration,
    /// Time spent in spin-down transitions.
    pub spinning_down: Duration,
    /// Completed spin-up transitions.
    pub spin_ups: u64,
    /// Completed spin-down transitions.
    pub spin_downs: u64,
}

impl DiskEnergyReport {
    /// Sum of all residencies — must equal wall time (energy-conservation
    /// invariant, property-tested).
    pub fn total_time(&self) -> Duration {
        self.active + self.idle + self.standby + self.spinning_up + self.spinning_down
    }

    /// Combines two reports (e.g. across disks of an array).
    pub fn merged(&self, other: &DiskEnergyReport) -> DiskEnergyReport {
        DiskEnergyReport {
            total_joules: self.total_joules + other.total_joules,
            active: self.active + other.active,
            idle: self.idle + other.idle,
            standby: self.standby + other.standby,
            spinning_up: self.spinning_up + other.spinning_up,
            spinning_down: self.spinning_down + other.spinning_down,
            spin_ups: self.spin_ups + other.spin_ups,
            spin_downs: self.spin_downs + other.spin_downs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> DiskParams {
        DiskParams::ultrastar_36z15()
    }

    #[test]
    fn integrates_state_power() {
        let p = params();
        let mut m = EnergyMeter::new(&p, PowerState::Idle, SimTime::ZERO);
        m.transition(PowerState::Active, SimTime::from_secs(100));
        let r = m.report(SimTime::from_secs(160), &p);
        let expect = 100.0 * 10.2 + 60.0 * 13.5;
        assert!((r.total_joules - expect).abs() < 1e-6, "{r:?}");
        assert_eq!(r.idle, Duration::from_secs(100));
        assert_eq!(r.active, Duration::from_secs(60));
    }

    #[test]
    fn transition_energy_and_counters() {
        let p = params();
        let mut m = EnergyMeter::new(&p, PowerState::Idle, SimTime::ZERO);
        m.transition(PowerState::SpinningDown, SimTime::from_secs(10));
        m.charge_transition_energy(p.spin_down_energy_j);
        m.transition(PowerState::Standby, SimTime::from_millis(11_500));
        m.transition(PowerState::SpinningUp, SimTime::from_secs(50));
        m.charge_transition_energy(p.spin_up_energy_j);
        m.transition(PowerState::Idle, SimTime::from_millis(60_900));
        let r = m.report(SimTime::from_millis(60_900), &p);
        assert_eq!(r.spin_downs, 1);
        assert_eq!(r.spin_ups, 1);
        let expect = 10.0 * 10.2 + 13.0 + (50.0 - 11.5) * 2.5 + 135.0;
        assert!((r.total_joules - expect).abs() < 1e-6, "{}", r.total_joules);
        assert_eq!(r.spinning_up, Duration::from_millis(10_900));
        assert_eq!(r.spinning_down, Duration::from_millis(1_500));
    }

    #[test]
    fn residencies_cover_wall_time() {
        let p = params();
        let mut m = EnergyMeter::new(&p, PowerState::Idle, SimTime::ZERO);
        let steps = [
            (PowerState::Active, 3u64),
            (PowerState::Idle, 9),
            (PowerState::SpinningDown, 11),
            (PowerState::Standby, 13),
            (PowerState::SpinningUp, 40),
            (PowerState::Idle, 52),
        ];
        for (s, t) in steps {
            m.transition(s, SimTime::from_secs(t));
        }
        let r = m.report(SimTime::from_secs(60), &p);
        assert_eq!(r.total_time(), Duration::from_secs(60));
    }

    #[test]
    fn report_is_idempotent() {
        let p = params();
        let m = EnergyMeter::new(&p, PowerState::Active, SimTime::ZERO);
        let r1 = m.report(SimTime::from_secs(5), &p);
        let r2 = m.report(SimTime::from_secs(5), &p);
        assert_eq!(r1, r2);
    }

    #[test]
    fn merged_adds_fields() {
        let p = params();
        let m = EnergyMeter::new(&p, PowerState::Active, SimTime::ZERO);
        let r = m.report(SimTime::from_secs(10), &p);
        let d = r.merged(&r);
        assert!((d.total_joules - 2.0 * r.total_joules).abs() < 1e-9);
        assert_eq!(d.active, r.active * 2);
    }
}
