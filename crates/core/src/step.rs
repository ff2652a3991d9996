//! One worker round, written once for both runtimes: drain the inbox →
//! `PEval` (round 0) or `IncEval` → route the emitted updates → count.
//!
//! The threaded engine's BSP and async drivers and the simulator all call
//! [`Step::round`]. What really differs between them stays with the
//! caller: where the inbox lives and who else touches it (the `drain`
//! closure), what a round costs (the `clock` closure: wall time or a cost
//! model), and how the routed batches — left in [`Scratch::take_out`] —
//! are delivered (immediately, at a barrier, or through the event heap).

use crate::inbox::DrainInfo;
use crate::pie::{route_updates_into, Batch, PieProgram, Round, UpdateCtx};
use crate::scratch::Scratch;
use crate::stats::{WorkerStats, BATCH_HEADER_BYTES, UPDATE_KEY_BYTES};
use aap_graph::Fragment;
use aap_trace::{cat, pid, Args, Tracer};

/// What stays fixed across a run's rounds: the program, the query, the
/// round-0 evaluator (`PEval`, or `warm_eval` for incremental runs) and
/// the tracer the phase spans go to.
pub struct Step<'a, P, Q, F> {
    /// The PIE program.
    pub prog: &'a P,
    /// The query under evaluation.
    pub q: &'a Q,
    /// Round 0's evaluator: `(worker, fragment, ctx) -> state`.
    pub eval0: &'a F,
    /// Receives the `drain`/`eval0`/`inceval`/`route` phase spans on the
    /// `pid::ENGINE` tracks; pass a disabled tracer to emit nothing.
    pub tracer: &'a Tracer,
}

/// What one round did. `Copy`, so a driver can hand it to δ, the cost
/// model, the timeline and the [`WorkerStats`] fold alike.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RoundReport {
    /// Aggregated messages handed to `IncEval` (0 in round 0).
    pub delivered: u64,
    /// Batches drained from the inbox (the staleness `ηi` consumed).
    pub drained_batches: usize,
    /// Raw updates drained, before `faggr` aggregation.
    pub drained_updates: usize,
    /// Updates that improved a parameter.
    pub effective: u64,
    /// Updates that did not (stale work).
    pub redundant: u64,
    /// Work the kernel charged (`UpdateCtx::work`).
    pub work: u64,
    /// Updates the kernel emitted, before routing deduplicates them.
    pub sent: usize,
    /// The program asked for a local-only round (vertex-centric adapters).
    pub local_work: bool,
    /// The round's compute time, as the runtime's `clock` measured it.
    pub compute: f64,
    /// Batches routed.
    pub batches_out: u64,
    /// Updates in the routed batches.
    pub updates_out: u64,
    /// Serialized bytes of the routed batches.
    pub bytes_out: u64,
}

impl RoundReport {
    /// Fold this round into a worker's counters.
    pub fn fold_into(&self, st: &mut WorkerStats) {
        st.rounds += 1;
        st.compute_time += self.compute;
        st.updates_delivered += self.delivered;
        st.effective_updates += self.effective;
        st.redundant_updates += self.redundant;
        st.batches_out += self.batches_out;
        st.updates_out += self.updates_out;
        st.bytes_out += self.bytes_out;
    }
}

impl<P, Q, F> Step<'_, P, Q, F> {
    /// Run round `round` of worker `w` over `frag`.
    ///
    /// Round 0 evaluates `eval0` into `state` and drains nothing: batches
    /// a faster peer already sent belong to `IncEval`. Later rounds call
    /// `drain` (which must move the inbox into `scratch` and report what
    /// it took), then `IncEval` on the aggregated messages. `clock` is
    /// read once the kernel returns, before routing; its value becomes
    /// [`RoundReport::compute`]. The routed batches are left in the
    /// scratch's outgoing list ([`Scratch::take_out`]).
    #[allow(clippy::too_many_arguments)]
    pub fn round<V, E, D, C>(
        &self,
        w: usize,
        frag: &Fragment<V, E>,
        round: Round,
        scratch: &mut Scratch<P::Val>,
        state: &mut Option<P::State>,
        drain: D,
        clock: C,
    ) -> RoundReport
    where
        P: PieProgram<V, E, Query = Q>,
        F: Fn(usize, &Fragment<V, E>, &mut UpdateCtx<P::Val>) -> P::State,
        D: FnOnce(&mut Scratch<P::Val>) -> DrainInfo,
        C: FnOnce(&RoundReport) -> f64,
    {
        let (tracer, tid) = (self.tracer, w as u32);
        let traced = tracer.enabled();
        let mut r = RoundReport::default();
        if round > 0 {
            if traced {
                tracer.begin(pid::ENGINE, tid, cat::PHASE, "drain", Args::new());
            }
            let info = drain(scratch);
            // Keep send/recycle capacity in line with observed traffic so
            // the next round's routing starts warm.
            scratch.reserve_for_traffic(info.raw_updates, info.batches);
            if traced {
                tracer.end(
                    pid::ENGINE,
                    tid,
                    cat::PHASE,
                    "drain",
                    Args::new().with("batches", info.batches).with("updates", info.raw_updates),
                );
            }
            r.drained_batches = info.batches;
            r.drained_updates = info.raw_updates;
        }
        // Outside drain/IncEval the message buffer is empty, so round 0
        // gets an empty (recycled) vector.
        let mut msgs = scratch.take_msgs();
        r.delivered = msgs.len() as u64;
        let mut ctx = UpdateCtx::with_buffer(scratch.take_updates_buf());
        let eval_name = if round == 0 { "eval0" } else { "inceval" };
        if traced {
            tracer.begin(pid::ENGINE, tid, cat::PHASE, eval_name, Args::new());
        }
        if round == 0 {
            *state = Some((self.eval0)(w, frag, &mut ctx));
        } else {
            let st = state.as_mut().expect("state initialised by PEval");
            self.prog.inceval(self.q, frag, st, &mut msgs, &mut ctx);
        }
        scratch.give_msgs(msgs);
        (r.effective, r.redundant) = ctx.effect_counts();
        (r.work, r.sent) = (ctx.work(), ctx.len());
        let (mut updates, local_work) = ctx.take();
        r.local_work = local_work;
        r.compute = clock(&r);
        if traced {
            tracer.end(
                pid::ENGINE,
                tid,
                cat::PHASE,
                eval_name,
                Args::new()
                    .with("effective", r.effective)
                    .with("redundant", r.redundant)
                    .with("work", r.work)
                    .with("sent", r.sent),
            );
            tracer.begin(pid::ENGINE, tid, cat::PHASE, "route", Args::new());
        }
        let mut batches = scratch.take_out();
        route_updates_into(self.prog, frag, round, &mut updates, scratch, &mut batches);
        scratch.give_updates_buf(updates);
        if traced {
            tracer.end(
                pid::ENGINE,
                tid,
                cat::PHASE,
                "route",
                Args::new().with("batches", batches.len()),
            );
        }
        r.batches_out = batches.len() as u64;
        r.updates_out = batches.iter().map(|(_, b)| b.updates.len() as u64).sum();
        let bytes = |b: &Batch<P::Val>| {
            let body: usize = b.updates.iter().map(|(_, v)| self.prog.val_bytes(v)).sum();
            (BATCH_HEADER_BYTES + b.updates.len() * UPDATE_KEY_BYTES + body) as u64
        };
        r.bytes_out = batches.iter().map(|(_, b)| bytes(b)).sum();
        scratch.out = batches;
        r
    }
}
