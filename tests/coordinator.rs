//! The bare coordinator (`aap_core::coord`), driven without threads or an
//! event heap: adversarial orders of drain, round-done, arrival and
//! due-wake events in every mode must never lose a wake-up or miscount
//! the workers in flight, and once warm the event stream allocates
//! nothing.

use grape_aap::runtime::coord::{Action, Coordinator, Status};
use grape_aap::runtime::policy::{AapConfig, HsyncConfig, Mode};
use proptest::prelude::*;

mod common;
use common::{allocs, bytes};

fn modes() -> Vec<Mode> {
    vec![
        Mode::Bsp,
        Mode::Ap,
        Mode::Ssp { c: 0 },
        Mode::Ssp { c: 2 },
        Mode::aap(),
        Mode::aap_with_floor(2.0),
        Mode::Aap(AapConfig { staleness_bound: Some(1), ..AapConfig::default() }),
        Mode::Aap(AapConfig { l_floor_frac: Some(0.6), ..AapConfig::default() }),
        Mode::Hsync(HsyncConfig::default()),
        Mode::Hsync(HsyncConfig { window: 1, straggler_threshold: 1.2 }),
    ]
}

/// A driver with no clock of its own: inboxes are counters, batches in
/// flight are a list of destinations, and time moves only when told.
struct Model {
    coord: Coordinator,
    eta: Vec<usize>,
    local_work: Vec<bool>,
    in_flight: Vec<usize>,
    /// Timed suspensions handed out, fed back (in any order) through
    /// `due`, the simulator's path.
    wakes: Vec<(f64, usize, u64)>,
    now: f64,
    acts: Vec<Action>,
}

impl Model {
    fn new(mode: Mode, m: usize) -> Self {
        Model {
            coord: Coordinator::new(mode, m),
            eta: vec![0; m],
            local_work: vec![false; m],
            in_flight: Vec::with_capacity(4 * m * m),
            wakes: Vec::with_capacity(4 * m),
            now: 0.0,
            acts: Vec::with_capacity(4 * m),
        }
    }

    fn m(&self) -> usize {
        self.eta.len()
    }

    /// The `k`-th running worker (cyclically), if any runs.
    fn running(&self, k: usize) -> Option<usize> {
        let n = (0..self.m()).filter(|&w| self.coord.status(w) == Status::Running).count();
        (n > 0).then(|| {
            (0..self.m()).filter(|&w| self.coord.status(w) == Status::Running).nth(k % n).unwrap()
        })
    }

    fn drain(&mut self, w: usize) {
        self.coord.drained(w, self.eta[w], self.now);
        self.eta[w] = 0;
    }

    /// Worker `w` finishes a round that sent one batch to every worker in
    /// `sends` (a bit set). `eager` delivers them before the round is
    /// reported, as the threaded engine does; otherwise they stay in
    /// flight, as in the simulator.
    fn finish(&mut self, w: usize, sends: u32, local_work: bool, dt: f64, eager: bool) {
        let dsts: Vec<usize> =
            (0..self.m()).filter(|&d| d != w && sends & (1 << (d % 32)) != 0).collect();
        self.local_work[w] = local_work;
        if eager {
            for &d in &dsts {
                self.eta[d] += 1;
            }
        }
        let eta = self.eta.clone();
        self.coord.round_done(w, local_work, dt, self.now, |v| eta[v], &mut self.acts);
        self.record();
        if eager {
            for d in dsts {
                let eta = self.eta.clone();
                self.coord.arrived(d, self.now, |v| eta[v], &mut self.acts);
                self.record();
            }
        } else {
            self.in_flight.extend(dsts);
        }
    }

    fn deliver(&mut self, k: usize) {
        let d = self.in_flight.swap_remove(k % self.in_flight.len());
        self.eta[d] += 1;
        let eta = self.eta.clone();
        self.coord.arrived(d, self.now, |v| eta[v], &mut self.acts);
        self.record();
    }

    fn wake_due(&mut self) {
        if let Some(t) = self.coord.next_deadline() {
            self.now = self.now.max(t);
        }
        let eta = self.eta.clone();
        self.coord.wake_due(self.now, |v| eta[v], &mut self.acts);
        self.record();
    }

    fn due(&mut self, k: usize) {
        let (t, w, gen) = self.wakes.swap_remove(k % self.wakes.len());
        self.now = self.now.max(t);
        let eta = self.eta.clone();
        self.coord.due(w, gen, self.now, |v| eta[v], &mut self.acts);
        self.record();
    }

    fn record(&mut self) {
        for a in &self.acts {
            if let Status::Suspended(Some(t)) = a.to {
                self.wakes.push((t, a.w, a.gen));
            }
        }
    }

    /// The invariants that hold between any two events.
    fn check(&self) -> Result<(), TestCaseError> {
        let mut seen = vec![false; self.m()];
        for a in &self.acts {
            prop_assert!(!seen[a.w], "worker {} decided twice in one event", a.w);
            seen[a.w] = true;
            prop_assert_eq!(self.coord.status(a.w), a.to);
        }
        for w in 0..self.m() {
            let work = self.eta[w] > 0 || self.local_work[w];
            match self.coord.status(w) {
                Status::Inactive => prop_assert!(!work, "P{w} inactive with work: a lost wake-up"),
                Status::Suspended(_) => prop_assert!(work, "P{w} suspended with nothing to do"),
                Status::Running => {}
            }
        }
        let all_inactive = (0..self.m()).all(|w| self.coord.status(w) == Status::Inactive);
        prop_assert_eq!(self.coord.is_done(), all_inactive);
        Ok(())
    }

    /// Run to quiescence: rounds finish without sending, batches land,
    /// deadlines fall due. Returns the events it took.
    fn settle(&mut self) -> Result<usize, TestCaseError> {
        for step in 0..100_000 {
            if let Some(w) = self.running(0) {
                self.drain(w);
                self.finish(w, 0, false, 1.0, false);
            } else if !self.in_flight.is_empty() {
                self.deliver(0);
            } else if self.coord.next_deadline().is_some() {
                self.wake_due();
            } else {
                return Ok(step);
            }
            self.check()?;
        }
        Err(TestCaseError::fail("no quiescence within 100k events".into()))
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 400, ..ProptestConfig::default() })]

    #[test]
    fn adversarial_event_orders_lose_no_wake_up(
        mode in 0usize..10,
        m in 1usize..17,
        ops in prop::collection::vec((0u8..7, 0usize..1024, 0u32..u32::MAX), 0..160),
    ) {
        let mode = modes()[mode].clone();
        let mut model = Model::new(mode.clone(), m);
        for (op, k, x) in ops {
            match op {
                0 => {
                    if let Some(w) = model.running(k) {
                        model.drain(w);
                    }
                }
                1 | 2 => {
                    if let Some(w) = model.running(k) {
                        let dt = (x % 1000) as f64 / 100.0;
                        model.finish(w, x, x % 5 == 0, dt, op == 2);
                    }
                }
                3 if !model.in_flight.is_empty() => model.deliver(k),
                4 => model.wake_due(),
                5 if !model.wakes.is_empty() => model.due(k),
                _ => model.now += (x % 400) as f64 / 100.0,
            }
            model.check()?;
        }
        model.settle()?;
        prop_assert!(model.coord.is_done(), "{mode:?}, m = {m}: not done at quiescence");
        prop_assert!(model.eta.iter().all(|&e| e == 0), "{mode:?}, m = {m}: batches stranded");
    }
}

/// Once warm, a stream of drain / round-done / arrival / wake events over
/// 64 workers allocates nothing: the suspended-set scan, the deadline
/// heap and the order statistics behind δ all reuse their buffers.
#[test]
fn steady_coordination_allocates_nothing() {
    for mode in [Mode::aap(), Mode::Ssp { c: 1 }] {
        let m = 64;
        let mut model = Model::new(mode.clone(), m);
        let mut eta = vec![0usize; m];
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut step = |model: &mut Model, eta: &mut [usize]| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let k = (rng >> 8) as usize;
            model.now += 0.01;
            if let Some(w) = model.running(k) {
                model.drain(w);
                model.local_work[w] = false;
                // One batch to the next two workers, delivered eagerly.
                let dsts = [(w + 1) % m, (w + 1 + k % (m - 1)) % m];
                for d in dsts {
                    model.eta[d] += 1;
                }
                eta.copy_from_slice(&model.eta);
                let dt = 0.5 + (k % 100) as f64 / 100.0;
                model.coord.round_done(w, false, dt, model.now, |v| eta[v], &mut model.acts);
                for d in dsts {
                    model.coord.arrived(d, model.now, |v| eta[v], &mut model.acts);
                }
            } else {
                if let Some(t) = model.coord.next_deadline() {
                    model.now = model.now.max(t);
                }
                eta.copy_from_slice(&model.eta);
                model.coord.wake_due(model.now, |v| eta[v], &mut model.acts);
            }
        };
        for _ in 0..20_000 {
            step(&mut model, &mut eta);
        }
        let (a0, b0) = (allocs(), bytes());
        for _ in 0..20_000 {
            step(&mut model, &mut eta);
        }
        let (a, b) = (allocs() - a0, bytes() - b0);
        assert_eq!((a, b), (0, 0), "{mode:?}: {a} allocations, {b} bytes after warm-up");
        assert!(!model.coord.is_done(), "{mode:?}: the stream must keep workers busy");
    }
}
