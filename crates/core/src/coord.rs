//! The coordinator: what happens between two rounds — evaluate δ, suspend,
//! wake, release held workers, detect termination — written once for both
//! runtimes (§3 workflow).
//!
//! [`Coordinator`] is plain data with no lock and no clock. A driver feeds
//! it what happened, stamped with the time on its own clock: a worker
//! drained its inbox ([`Coordinator::drained`]), finished a round
//! ([`Coordinator::round_done`]), received a batch
//! ([`Coordinator::arrived`]), or reached a wake deadline
//! ([`Coordinator::due`], [`Coordinator::wake_due`]). It answers with
//! [`Action`]s, in the order they were decided, for the driver to carry
//! out: start a round, suspend, go inactive. Every decision goes through
//! [`policy::delta`].
//!
//! The threaded engine drives it under one mutex in wall-clock seconds,
//! sleeping until [`Coordinator::next_deadline`]; the simulator drives it
//! from its event heap in virtual time. The staleness `ηi` stays where the
//! messages live (an atomic mirror, or the simulated inbox), so every
//! event that may evaluate δ reads it through the driver's `eta` closure.

use crate::pie::Round;
use crate::policy::{self, Decision, DeltaInputs, HsyncConfig, Mode, PolicyState};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Where a worker stands between rounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Status {
    /// Running a round, or told to and not yet finished.
    Running,
    /// Suspended by δ until the deadline, or (`None`) until the round
    /// bounds move or a message arrives.
    Suspended(Option<f64>),
    /// Nothing to do until a message arrives.
    Inactive,
}

/// One decision for one worker, for the driver to carry out.
#[derive(Debug, Clone, Copy)]
pub struct Action {
    /// The worker.
    pub w: usize,
    /// Its new status. `Running`: start its next round now.
    /// `Suspended(Some(t))`: at `t`, feed `(w, gen)` back through
    /// [`Coordinator::due`] (or let [`Coordinator::wake_due`] find it).
    pub to: Status,
    /// The wake generation `to` holds; a due wake with an older one is
    /// stale.
    pub gen: u64,
    /// δ's verdict and the inputs it was reached on; `None` when a due
    /// wake runs or retires the worker without evaluating δ.
    pub decided: Option<(Decision, DeltaInputs)>,
    /// Start of the suspension this action ends, if it ends one.
    pub suspended_since: Option<f64>,
}

/// The between-rounds state machine of the asynchronous modes (AP, SSP,
/// AAP, Hsync): per-worker status, rounds `ri`, δ's statistics, suspend
/// starts and wake generations, and the wake deadlines.
#[derive(Debug)]
pub struct Coordinator {
    mode: Mode,
    status: Vec<Status>,
    rounds: Vec<Round>,
    local_work: Vec<bool>,
    pstates: Vec<PolicyState>,
    suspended_since: Vec<Option<f64>>,
    gen: Vec<u64>,
    /// Workers not `Inactive`.
    pending: usize,
    /// Each worker's `si`/`ti` as of its last completed round — the
    /// global statistics δ reads (§6 "statistics collector").
    s_rate: Vec<f64>,
    t_round: Vec<f64>,
    /// Sort buffer for the order statistics of `t_round`.
    sorted: Vec<f64>,
    /// Hsync's global switch: lockstep (BSP) phase, as PowerSwitch
    /// starts in sync mode, until the straggler ratio says otherwise.
    hsync_sync: bool,
    hsync_rounds: u64,
    /// Wake deadlines `(until, w, gen)`, earliest first, possibly stale
    /// (checked against `gen`). A deadline is never negative, and
    /// non-negative `f64`s order as their bits.
    deadlines: BinaryHeap<Reverse<(u64, usize, u64)>>,
    /// Reused list of suspended workers to re-evaluate.
    held: Vec<usize>,
}

impl Coordinator {
    /// `m` workers about to run round 0: all `Running`.
    pub fn new(mode: Mode, m: usize) -> Self {
        let l0 = match &mode {
            Mode::Aap(cfg) => policy::l_floor(cfg, m),
            _ => 0.0,
        };
        Coordinator {
            mode,
            status: vec![Status::Running; m],
            rounds: vec![0; m],
            local_work: vec![false; m],
            pstates: vec![PolicyState::new(l0); m],
            suspended_since: vec![None; m],
            gen: vec![0; m],
            pending: m,
            s_rate: vec![0.0; m],
            t_round: vec![0.0; m],
            sorted: Vec::with_capacity(m),
            hsync_sync: true,
            hsync_rounds: 0,
            deadlines: BinaryHeap::with_capacity(2 * m + 1),
            held: Vec::with_capacity(m),
        }
    }

    /// Rounds worker `w` has completed (`ri`): the number of its next round.
    pub fn round(&self, w: usize) -> Round {
        self.rounds[w]
    }

    /// Worker `w`'s status.
    pub fn status(&self, w: usize) -> Status {
        self.status[w]
    }

    /// True once every worker is inactive: nothing runs, nothing is
    /// suspended, so with every arrival reported the run is over.
    pub fn is_done(&self) -> bool {
        self.pending == 0
    }

    /// The earliest live wake deadline.
    pub fn next_deadline(&mut self) -> Option<f64> {
        while let Some(&Reverse((until, w, gen))) = self.deadlines.peek() {
            if self.gen[w] == gen {
                return Some(f64::from_bits(until));
            }
            self.deadlines.pop();
        }
        None
    }

    /// Worker `w` drained `batches` batches at `now`, at the start of a
    /// round: measure its arrival rate and re-target `Li`.
    pub fn drained(&mut self, w: usize, batches: usize, now: f64) {
        let (m, avg, fast) = (self.status.len(), self.avg_rate(), self.fast_count());
        policy::on_drain(&self.mode, &mut self.pstates[w], batches, now, m, avg, fast);
    }

    /// Worker `w` finished a round of `round_time` at `now`, asking for a
    /// local round iff `local_work`. Decides its fate with the worker
    /// provisionally inactive, then — if that moved the round bounds —
    /// re-evaluates the other suspended workers in ascending id.
    pub fn round_done<F: Fn(usize) -> usize>(
        &mut self,
        w: usize,
        local_work: bool,
        round_time: f64,
        now: f64,
        eta: F,
        out: &mut Vec<Action>,
    ) {
        out.clear();
        debug_assert_eq!(self.status[w], Status::Running);
        let before = self.bounds();
        self.rounds[w] += 1;
        self.local_work[w] = local_work;
        let ps = &mut self.pstates[w];
        policy::finish_round(&self.mode, ps, round_time, now);
        (self.s_rate[w], self.t_round[w]) = (ps.s_rate, ps.t_round);
        if let Mode::Hsync(HsyncConfig { window, straggler_threshold }) = self.mode {
            // Every `window` completed rounds, switch to AP when
            // `max(ti)/median(ti)` reaches the threshold, else to lockstep.
            self.hsync_rounds += 1;
            if self.hsync_rounds.is_multiple_of(window as u64) {
                let skew = match self.sorted_times() {
                    Some(median) => self.sorted[self.sorted.len() - 1] / median,
                    None => 1.0,
                };
                self.hsync_sync = skew < straggler_threshold;
            }
        }
        self.status[w] = Status::Inactive;
        self.pending -= 1;
        let provisional = self.bounds();
        self.evaluate(w, now, provisional, &eta, out);
        let after = self.bounds();
        if after != before || after != provisional {
            self.release(w, now, after, &eta, out);
        }
    }

    /// A batch reached worker `w` at `now` (§3: "when Pi receives a new
    /// message, DSi is adjusted"); a running worker sees it next round.
    pub fn arrived<F: Fn(usize) -> usize>(
        &mut self,
        w: usize,
        now: f64,
        eta: F,
        out: &mut Vec<Action>,
    ) {
        out.clear();
        if self.status[w] != Status::Running {
            let b = self.bounds();
            self.evaluate(w, now, b, &eta, out);
        }
    }

    /// Wake `gen` of worker `w` fell due at `now`; a stale one (the
    /// worker was decided again since) does nothing. A suspension that
    /// outlasted `DSi` ends (§3): the worker runs if it has work, else
    /// retires, which may release held workers.
    pub fn due<F: Fn(usize) -> usize>(
        &mut self,
        w: usize,
        gen: u64,
        now: f64,
        eta: F,
        out: &mut Vec<Action>,
    ) {
        out.clear();
        self.wake(w, gen, now, &eta, out);
    }

    /// Every wake deadline at or before `now` falls due, earliest first.
    pub fn wake_due<F: Fn(usize) -> usize>(&mut self, now: f64, eta: F, out: &mut Vec<Action>) {
        out.clear();
        while let Some(&Reverse((until, w, gen))) = self.deadlines.peek() {
            if f64::from_bits(until) > now {
                break;
            }
            self.deadlines.pop();
            self.wake(w, gen, now, &eta, out);
        }
    }

    fn wake(
        &mut self,
        w: usize,
        gen: u64,
        now: f64,
        eta: &impl Fn(usize) -> usize,
        out: &mut Vec<Action>,
    ) {
        if self.gen[w] != gen {
            return;
        }
        if eta(w) > 0 || self.local_work[w] {
            self.set(w, Status::Running, None, now, out);
        } else {
            let before = self.bounds();
            self.set(w, Status::Inactive, None, now, out);
            let after = self.bounds();
            if after != before {
                self.release(w, now, after, eta, out);
            }
        }
    }

    /// Mean arrival rate over workers with a measurement.
    fn avg_rate(&self) -> f64 {
        let (sum, n) = self
            .s_rate
            .iter()
            .filter(|&&v| v > 0.0)
            .fold((0.0, 0usize), |(sum, n), &v| (sum + v, n + 1));
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Sort the measured (positive) round times into `sorted`; returns
    /// their median.
    fn sorted_times(&mut self) -> Option<f64> {
        self.sorted.clear();
        self.sorted.extend(self.t_round.iter().copied().filter(|&t| t > 0.0));
        self.sorted.sort_unstable_by(f64::total_cmp);
        self.sorted.get(self.sorted.len() / 2).copied()
    }

    /// Number of "fast" workers: measured round time within 1.5x of the
    /// median (the `L⊥` adjustment of §3).
    fn fast_count(&mut self) -> usize {
        match self.sorted_times() {
            Some(median) => self.sorted.iter().filter(|&&t| t <= 1.5 * median).count(),
            None => 0,
        }
    }

    /// `rmin` over non-inactive workers and `rmax` over all (§3 "bounds
    /// rmin and rmax"): inactive workers would otherwise pin `rmin`
    /// forever and deadlock the lockstep modes.
    fn bounds(&self) -> (Round, Round) {
        let mut rmin = Round::MAX;
        let mut rmax = 0;
        for (&r, s) in self.rounds.iter().zip(&self.status) {
            rmax = rmax.max(r);
            if *s != Status::Inactive {
                rmin = rmin.min(r);
            }
        }
        (if rmin == Round::MAX { rmax } else { rmin }, rmax)
    }

    /// The round bounds moved: re-evaluate every suspended worker but
    /// `skip`, in ascending id, on the bounds `b` (computed once — a
    /// rescan per worker would make large-`m` runs quadratic).
    fn release(
        &mut self,
        skip: usize,
        now: f64,
        b: (Round, Round),
        eta: &impl Fn(usize) -> usize,
        out: &mut Vec<Action>,
    ) {
        let mut held = std::mem::take(&mut self.held);
        held.clear();
        held.extend(
            (0..self.status.len())
                .filter(|&h| h != skip && matches!(self.status[h], Status::Suspended(_))),
        );
        for &h in &held {
            self.evaluate(h, now, b, eta, out);
        }
        self.held = held;
    }

    /// Evaluate δ for worker `w` on the bounds `(rmin, rmax)` and act on it.
    fn evaluate(
        &mut self,
        w: usize,
        now: f64,
        (rmin, rmax): (Round, Round),
        eta: &impl Fn(usize) -> usize,
        out: &mut Vec<Action>,
    ) {
        debug_assert_ne!(self.status[w], Status::Running);
        let seen = DeltaInputs {
            eta: eta(w),
            local_work: self.local_work[w],
            ri: self.rounds[w],
            rmin,
            rmax,
            now,
            hsync_sync: self.hsync_sync,
        };
        let d = policy::delta(&self.mode, &self.pstates[w], &seen);
        let status = match d {
            Decision::Run => Status::Running,
            Decision::Delay(ds) => Status::Suspended(Some(now + ds)),
            Decision::Hold => Status::Suspended(None),
            Decision::Inactive => Status::Inactive,
        };
        self.set(w, status, Some((d, seen)), now, out);
    }

    /// Move worker `w` to `to` and emit the action. Every move bumps the
    /// wake generation, so a pending wake stays live only while its
    /// suspension lasts; a suspension keeps its original start, and
    /// leaving one reports when it began.
    fn set(
        &mut self,
        w: usize,
        to: Status,
        decided: Option<(Decision, DeltaInputs)>,
        now: f64,
        out: &mut Vec<Action>,
    ) {
        match (self.status[w] == Status::Inactive, to == Status::Inactive) {
            (true, false) => self.pending += 1,
            (false, true) => self.pending -= 1,
            _ => {}
        }
        let suspended_since = match to {
            Status::Suspended(_) => {
                self.suspended_since[w].get_or_insert(now);
                None
            }
            _ => self.suspended_since[w].take(),
        };
        self.status[w] = to;
        self.gen[w] += 1;
        let gen = self.gen[w];
        if let Status::Suspended(Some(until)) = to {
            // Stale deadlines leave the heap when they reach its top; a
            // driver that never pops (the simulator schedules its own
            // wakes) has them swept here, so the heap stays within 2m.
            if self.deadlines.len() >= 2 * self.status.len() {
                let live = &self.gen;
                self.deadlines.retain(|&Reverse((_, w, gen))| live[w] == gen);
            }
            self.deadlines.push(Reverse((until.to_bits(), w, gen)));
        }
        out.push(Action { w, to, gen, decided, suspended_since });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hsync_switches_on_skew() {
        let cfg = HsyncConfig { window: 1, straggler_threshold: 1.5 };
        let mut c = Coordinator::new(Mode::Hsync(cfg), 4);
        let mut out = Vec::new();
        for w in 0..4 {
            c.round_done(w, false, 1.0, 1.0, |_| 0, &mut out);
        }
        assert!(c.hsync_sync, "balanced cluster should run sync");
        // A straggler appears: worker 3's next round takes 10x as long.
        c.arrived(3, 1.0, |_| 1, &mut out);
        assert_eq!(c.status(3), Status::Running);
        c.round_done(3, false, 10.0, 11.0, |_| 0, &mut out);
        assert!(!c.hsync_sync, "skewed cluster should run async");
    }
}
