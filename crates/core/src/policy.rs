//! Execution modes and the delay-stretch function `δ` (§3, Eq. 1).
//!
//! Every worker `Pi` keeps a delay stretch `DSi`: how long to stay suspended
//! accumulating updates before its next `IncEval` round. The paper's Eq. (1):
//!
//! ```text
//!        ⎧ +∞             ¬S(ri, rmin, rmax) ∨ (ηi = 0)
//! DSi = ⎨ T_Li − T_idle   S(...) ∧ (1 ≤ ηi < Li)
//!        ⎩ 0               S(...) ∧ (ηi ≥ Li)
//! ```
//!
//! with `T_Li ≈ (Li − ηi) / si` (time to accumulate `Li` batches at arrival
//! rate `si`) and `T_idle` the idle time since the last round. `Li` is
//! adjusted every round from the predicted round time `ti` and arrival rate
//! `si` (both EWMA estimates here, standing in for the paper's aggregated
//! statistics / random-forest predictor).
//!
//! **BSP, AP and SSP are special cases** (§3 "Special cases"): fixing `δ`
//! appropriately recovers each, which is exactly how [`delta`] implements
//! them — one function, five modes. Hsync (PowerSwitch) is simulated by a
//! global AP/BSP switch driven by the observed straggler ratio.

use crate::pie::Round;

/// Parallel-execution mode: which `δ` the workers run under.
#[derive(Debug, Clone, PartialEq)]
pub enum Mode {
    /// Bulk Synchronous Parallel: global supersteps (`DSi = ∞` iff
    /// `ri > rmin`). Pregel/GRAPE behaviour.
    Bsp,
    /// Asynchronous Parallel: run whenever the buffer is non-empty
    /// (`DSi = 0`). GraphLab-async/Maiter behaviour.
    Ap,
    /// Stale Synchronous Parallel with bound `c`: the fastest worker may
    /// lead the slowest by at most `c` rounds.
    Ssp {
        /// Bounded staleness: maximum lead in rounds.
        c: u32,
    },
    /// Adaptive Asynchronous Parallel (the paper's contribution): dynamic
    /// `DSi` per Eq. (1).
    Aap(AapConfig),
    /// Hsync/PowerSwitch: globally switch between AP and BSP phases based
    /// on the observed straggler ratio.
    Hsync(HsyncConfig),
}

impl Mode {
    /// Default AAP mode.
    pub fn aap() -> Self {
        Mode::Aap(AapConfig::default())
    }

    /// Short machine-readable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Mode::Bsp => "BSP",
            Mode::Ap => "AP",
            Mode::Ssp { .. } => "SSP",
            Mode::Aap(_) => "AAP",
            Mode::Hsync(_) => "Hsync",
        }
    }
}

/// Tuning knobs for AAP's dynamic adjustment (§3 "Dynamic adjustment").
#[derive(Debug, Clone, PartialEq)]
pub struct AapConfig {
    /// `L⊥`: initial/uniform lower bound on batches to accumulate.
    pub l_floor: f64,
    /// If set, `L⊥` is this fraction of `(m − 1)` (the Appendix-B CF run
    /// uses 0.6: wait for messages from 60% of the other workers).
    pub l_floor_frac: Option<f64>,
    /// `Δti` as a fraction of the predicted round time `ti`.
    pub delta_fraction: f64,
    /// Bounded-staleness predicate `S`: `None` disables it (CC, SSSP and
    /// PageRank need no bound, §5.3); `Some(c)` enforces SSP-style bounds
    /// (needed by CF).
    pub staleness_bound: Option<u32>,
    /// EWMA smoothing for the `ti` and `si` estimates.
    pub ewma_alpha: f64,
    /// Cap on `DSi` expressed in multiples of `ti`, so a worker never waits
    /// unboundedly when the arrival-rate estimate is off.
    pub max_wait_rounds: f64,
}

impl Default for AapConfig {
    fn default() -> Self {
        AapConfig {
            l_floor: 0.0,
            l_floor_frac: None,
            delta_fraction: 0.5,
            staleness_bound: None,
            ewma_alpha: 0.3,
            max_wait_rounds: 1.0,
        }
    }
}

/// Hsync (PowerSwitch) switching heuristics.
#[derive(Debug, Clone, PartialEq)]
pub struct HsyncConfig {
    /// Re-evaluate the global mode every this many completed rounds.
    pub window: u32,
    /// Switch to AP when `max(ti)/median(ti)` exceeds this ratio; back to
    /// BSP-like lockstep when it falls below.
    pub straggler_threshold: f64,
}

impl Default for HsyncConfig {
    fn default() -> Self {
        HsyncConfig { window: 8, straggler_threshold: 1.5 }
    }
}

/// What a worker should do next, as decided by `δ`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Decision {
    /// Start the next round immediately (`DSi = 0`).
    Run,
    /// Suspend for the given time, then re-evaluate (`DSi` finite).
    Delay(f64),
    /// Suspend indefinitely (`DSi = ∞`); re-evaluated when the global round
    /// bounds move or a message arrives.
    Hold,
    /// Buffer empty — nothing to do until a message arrives.
    Inactive,
}

impl Decision {
    /// Static label (trace args must be heap-free).
    pub fn name(&self) -> &'static str {
        match self {
            Decision::Run => "run",
            Decision::Delay(_) => "delay",
            Decision::Hold => "hold",
            Decision::Inactive => "inactive",
        }
    }
}

/// Per-worker statistics driving `δ`: the paper's `ti`, `si`, `Li`,
/// `T_idle` (§3).
#[derive(Debug, Clone)]
pub struct PolicyState {
    /// Current accumulation target `Li` (in batches).
    pub li: f64,
    /// EWMA of the round compute time `ti`.
    pub t_round: f64,
    /// EWMA of the message-batch arrival rate `si` (batches per time unit).
    pub s_rate: f64,
    /// Time at which the worker last became idle.
    pub idle_since: f64,
    /// Time of the last buffer drain (for arrival-rate measurement).
    pub last_drain: f64,
}

impl PolicyState {
    /// Initial state at time 0 with the configured `L⊥`.
    pub fn new(cfg_l_floor: f64) -> Self {
        PolicyState { li: cfg_l_floor, t_round: 0.0, s_rate: 0.0, idle_since: 0.0, last_drain: 0.0 }
    }
}

/// Inputs to one `δ` evaluation.
#[derive(Debug, Clone, Copy)]
pub struct DeltaInputs {
    /// Staleness `ηi`: buffered batches.
    pub eta: usize,
    /// The worker has pending local-only work (its last round called
    /// [`crate::pie::UpdateCtx::request_local_round`]). Every mode treats
    /// it as work to do; under AAP it forces a round only when `eta == 0`
    /// — with `1 ≤ ηi < Li` the round waits for the batch like any other.
    pub local_work: bool,
    /// Rounds completed by this worker (`ri`).
    pub ri: Round,
    /// Minimum completed round over non-inactive workers (`rmin`).
    pub rmin: Round,
    /// Maximum completed round over all workers (`rmax`).
    pub rmax: Round,
    /// Current time (seconds for the threaded engine, virtual units for the
    /// simulator).
    pub now: f64,
    /// Hsync only: is the global switch currently in lockstep (BSP) phase?
    pub hsync_sync: bool,
}

/// Effective `L⊥` for a cluster of `m` workers.
pub fn l_floor(cfg: &AapConfig, m: usize) -> f64 {
    match cfg.l_floor_frac {
        Some(f) => f * (m.saturating_sub(1)) as f64,
        None => cfg.l_floor,
    }
}

/// The delay-stretch function `δ` (Eq. 1), covering all five modes.
///
/// Pending local work ([`DeltaInputs::local_work`]) counts as work in
/// every mode. Under AAP it runs the worker at once only when no batch is
/// buffered (`ηi = 0`); when `1 ≤ ηi < Li` the delay stretch applies to
/// the whole round, local leftovers included, so they are pushed together
/// with the accumulated batch.
pub fn delta(mode: &Mode, ps: &PolicyState, inp: &DeltaInputs) -> Decision {
    let has_work = inp.eta > 0 || inp.local_work;
    if !has_work {
        return Decision::Inactive;
    }
    match mode {
        Mode::Bsp => {
            if inp.ri > inp.rmin {
                Decision::Hold
            } else {
                Decision::Run
            }
        }
        Mode::Ap => Decision::Run,
        Mode::Ssp { c } => {
            if inp.ri > inp.rmin.saturating_add(*c) {
                Decision::Hold
            } else {
                Decision::Run
            }
        }
        Mode::Hsync(_) => {
            if inp.hsync_sync && inp.ri > inp.rmin {
                Decision::Hold
            } else {
                Decision::Run
            }
        }
        Mode::Aap(cfg) => {
            // Predicate S: false when this worker is the front runner and
            // the spread exceeds the staleness bound.
            if let Some(c) = cfg.staleness_bound {
                if inp.ri >= inp.rmax && inp.rmax.saturating_sub(inp.rmin) > c {
                    return Decision::Hold;
                }
            }
            if (inp.local_work && inp.eta == 0) || (inp.eta as f64) >= ps.li {
                return Decision::Run;
            }
            // 1 ≤ ηi < Li: wait T_Li − T_idle, where T_Li = (Li − ηi)/si.
            // Waiting is only worthwhile when Li is *reachable* within the
            // horizon (`max_wait_rounds · ti`); otherwise no useful batch
            // of messages is predicted to arrive in time and the worker
            // runs at once (Example 4: "DSi = 0 ... since no messages are
            // predicted to arrive within the next time unit").
            if ps.s_rate <= 1e-12 {
                return Decision::Run;
            }
            let horizon =
                if ps.t_round > 0.0 { cfg.max_wait_rounds * ps.t_round } else { f64::MAX };
            let t_li = (ps.li - inp.eta as f64) / ps.s_rate;
            if t_li > horizon {
                return Decision::Run;
            }
            let t_idle = (inp.now - ps.idle_since).max(0.0);
            let ds = t_li - t_idle;
            if ds <= 1e-12 {
                Decision::Run
            } else {
                Decision::Delay(ds)
            }
        }
    }
}

/// Update the per-worker estimates when a round's buffer is drained:
/// measures the arrival rate and re-targets `Li` (§3: "When si is above the
/// average rate, Li is changed to max(ηi, L⊥) + Δti · si").
pub fn on_drain(
    mode: &Mode,
    ps: &mut PolicyState,
    drained_batches: usize,
    now: f64,
    m: usize,
    avg_rate: f64,
    fast_workers: usize,
) {
    let Mode::Aap(cfg) = mode else {
        ps.last_drain = now;
        return;
    };
    let dt = now - ps.last_drain;
    if dt > 1e-12 {
        let rate = drained_batches as f64 / dt;
        ps.s_rate = if ps.s_rate == 0.0 {
            rate
        } else {
            cfg.ewma_alpha * rate + (1.0 - cfg.ewma_alpha) * ps.s_rate
        };
    }
    ps.last_drain = now;
    // "L⊥ is adjusted with the number of 'fast' workers" (§3): once round
    // times are known, a worker should accumulate messages from about half
    // the fast group before starting, which is what groups fast workers
    // into near-BSP cadence (§3 observation (1b)).
    let group_floor = 0.5 * fast_workers.saturating_sub(1) as f64;
    let base = (drained_batches as f64).max(l_floor(cfg, m)).max(group_floor);
    ps.li = if ps.s_rate > avg_rate && avg_rate > 0.0 {
        base + cfg.delta_fraction * ps.t_round * ps.s_rate
    } else {
        base
    };
}

/// Fold a completed round into the policy: update the round-time
/// estimate `ti` and restart the idle clock.
pub fn finish_round(mode: &Mode, ps: &mut PolicyState, round_time: f64, now: f64) {
    let alpha = match mode {
        Mode::Aap(cfg) => cfg.ewma_alpha,
        _ => 0.3,
    };
    ps.t_round = if ps.t_round == 0.0 {
        round_time
    } else {
        alpha * round_time + (1.0 - alpha) * ps.t_round
    };
    ps.idle_since = now;
}

/// Trace args of one δ evaluation — the `decision` instant both runtimes
/// emit: the verdict, and the `ri`, `ηi` and `rmin` it was reached on.
pub fn decision_args(d: Decision, seen: &DeltaInputs) -> aap_trace::Args {
    aap_trace::Args::new()
        .with("decision", d.name())
        .with("round", seen.ri)
        .with("eta", seen.eta)
        .with("rmin", seen.rmin)
}

impl Mode {
    /// AAP with an explicit `L⊥` (used by tests and the CF workload).
    pub fn aap_with_floor(l_floor: f64) -> Self {
        Mode::Aap(AapConfig { l_floor, ..AapConfig::default() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(eta: usize, ri: Round, rmin: Round, rmax: Round) -> DeltaInputs {
        DeltaInputs { eta, local_work: false, ri, rmin, rmax, now: 100.0, hsync_sync: false }
    }

    #[test]
    fn empty_buffer_is_inactive_in_every_mode() {
        let ps = PolicyState::new(0.0);
        for mode in [Mode::Bsp, Mode::Ap, Mode::Ssp { c: 3 }, Mode::aap()] {
            assert_eq!(delta(&mode, &ps, &inputs(0, 5, 1, 9)), Decision::Inactive);
        }
    }

    #[test]
    fn bsp_is_lockstep() {
        let ps = PolicyState::new(0.0);
        assert_eq!(delta(&Mode::Bsp, &ps, &inputs(1, 3, 3, 3)), Decision::Run);
        assert_eq!(delta(&Mode::Bsp, &ps, &inputs(1, 4, 3, 4)), Decision::Hold);
    }

    #[test]
    fn ap_always_runs_with_messages() {
        let ps = PolicyState::new(0.0);
        assert_eq!(delta(&Mode::Ap, &ps, &inputs(1, 50, 1, 50)), Decision::Run);
    }

    #[test]
    fn ssp_bounds_the_lead() {
        let ps = PolicyState::new(0.0);
        let m = Mode::Ssp { c: 2 };
        assert_eq!(delta(&m, &ps, &inputs(1, 3, 1, 3)), Decision::Run); // lead 2 ≤ c
        assert_eq!(delta(&m, &ps, &inputs(1, 4, 1, 4)), Decision::Hold); // lead 3 > c
    }

    #[test]
    fn aap_runs_when_enough_accumulated() {
        let mut ps = PolicyState::new(3.0);
        ps.s_rate = 1.0;
        ps.t_round = 10.0;
        assert_eq!(delta(&Mode::aap_with_floor(3.0), &ps, &inputs(3, 1, 1, 1)), Decision::Run);
        // ηi = 1 < Li = 3: wait (3-1)/1 = 2 time units minus idle.
        let mut inp = inputs(1, 1, 1, 1);
        inp.now = 100.0;
        ps.idle_since = 100.0;
        match delta(&Mode::aap_with_floor(3.0), &ps, &inp) {
            Decision::Delay(d) => assert!((d - 2.0).abs() < 1e-9, "d = {d}"),
            other => panic!("expected delay, got {other:?}"),
        }
        // After idling 5 units the wait is exhausted.
        ps.idle_since = 95.0;
        assert_eq!(delta(&Mode::aap_with_floor(3.0), &ps, &inp), Decision::Run);
    }

    #[test]
    fn aap_staleness_bound_holds_front_runner() {
        let mode = Mode::Aap(AapConfig { staleness_bound: Some(2), ..AapConfig::default() });
        let ps = PolicyState::new(0.0);
        assert_eq!(delta(&mode, &ps, &inputs(1, 5, 2, 5)), Decision::Hold); // spread 3 > 2
        assert_eq!(delta(&mode, &ps, &inputs(1, 4, 2, 4)), Decision::Run); // spread 2 ≤ 2
        assert_eq!(delta(&mode, &ps, &inputs(1, 3, 2, 5)), Decision::Run); // not front runner
    }

    #[test]
    fn aap_runs_when_target_unreachable() {
        // Li would take (100 − 1)/0.001 = 99k time units to reach — far
        // beyond the wait horizon — so no useful accumulation is predicted
        // and the worker must run immediately rather than idle.
        let mut ps = PolicyState::new(100.0);
        ps.li = 100.0;
        ps.s_rate = 0.001;
        ps.t_round = 4.0;
        ps.idle_since = 100.0;
        let inp = inputs(1, 1, 1, 1);
        assert_eq!(delta(&Mode::aap(), &ps, &inp), Decision::Run);
    }

    #[test]
    fn aap_waits_when_target_reachable() {
        // 10 more batches at rate 5/unit arrive within 2 units — inside the
        // horizon (1.0 × t_round = 4) — so the worker stretches its delay.
        let mut ps = PolicyState::new(0.0);
        ps.li = 11.0;
        ps.s_rate = 5.0;
        ps.t_round = 4.0;
        ps.idle_since = 100.0;
        let inp = inputs(1, 1, 1, 1);
        match delta(&Mode::aap(), &ps, &inp) {
            Decision::Delay(d) => assert!((d - 2.0).abs() < 1e-9, "d = {d}"),
            other => panic!("expected delay, got {other:?}"),
        }
    }

    #[test]
    fn on_drain_raises_li_for_fast_arrivals() {
        let mode = Mode::aap();
        let mut ps = PolicyState::new(0.0);
        ps.t_round = 10.0;
        ps.last_drain = 0.0;
        // 40 batches in 10 units => rate 4, above avg 1.
        on_drain(&mode, &mut ps, 40, 10.0, 8, 1.0, 0);
        assert!(ps.s_rate > 3.9);
        assert!(ps.li > 40.0, "li = {}", ps.li);
    }

    #[test]
    fn local_work_forces_progress() {
        let ps = PolicyState::new(64.0);
        let mut inp = inputs(0, 1, 1, 1);
        inp.local_work = true;
        assert_eq!(delta(&Mode::aap_with_floor(64.0), &ps, &inp), Decision::Run);
    }

    #[test]
    fn aap_local_work_waits_behind_a_partial_batch() {
        // Same reachable target as `aap_waits_when_target_reachable`: with
        // 1 ≤ ηi < Li the delay stretch covers the local leftovers too.
        let mut ps = PolicyState::new(0.0);
        ps.li = 11.0;
        ps.s_rate = 5.0;
        ps.t_round = 4.0;
        ps.idle_since = 100.0;
        let mut inp = inputs(1, 1, 1, 1);
        inp.local_work = true;
        match delta(&Mode::aap(), &ps, &inp) {
            Decision::Delay(d) => assert!((d - 2.0).abs() < 1e-9, "d = {d}"),
            other => panic!("expected delay, got {other:?}"),
        }
        // Nothing buffered: the local work runs at once.
        inp.eta = 0;
        assert_eq!(delta(&Mode::aap(), &ps, &inp), Decision::Run);
    }

    #[test]
    fn local_work_is_unchanged_outside_aap() {
        let ps = PolicyState::new(0.0);
        let hsync = Mode::Hsync(HsyncConfig::default());
        for eta in [0, 1] {
            // Level with the slowest worker: everyone runs.
            let mut inp = inputs(eta, 1, 1, 1);
            inp.local_work = true;
            inp.hsync_sync = true;
            for mode in [Mode::Bsp, Mode::Ap, Mode::Ssp { c: 1 }, hsync.clone()] {
                assert_eq!(delta(&mode, &ps, &inp), Decision::Run, "{mode:?}, eta {eta}");
            }
            // Two rounds ahead: only AP ignores the bound.
            let mut inp = inputs(eta, 3, 1, 3);
            inp.local_work = true;
            inp.hsync_sync = true;
            assert_eq!(delta(&Mode::Ap, &ps, &inp), Decision::Run);
            for mode in [Mode::Bsp, Mode::Ssp { c: 1 }, hsync.clone()] {
                assert_eq!(delta(&mode, &ps, &inp), Decision::Hold, "{mode:?}, eta {eta}");
            }
        }
    }
}
