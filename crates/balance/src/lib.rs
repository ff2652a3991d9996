//! Elastic partition rebalancing — `aap-balance`.
//!
//! Repeated delta batches skew fragment sizes, and a skewed partition
//! erodes exactly the adaptive advantage AAP is built around: stragglers
//! stop being a scheduling problem and become a structural one. This
//! crate closes the loop with three parts:
//!
//! * **Monitor** — [`BalanceMonitor`] keeps per-fragment owned/edge/
//!   mirror counts and delta-touch rates *incrementally*: a full scan
//!   once at construction, then count refreshes only for fragments an
//!   apply actually changed. [`BalanceMonitor::report`] folds the counts
//!   through [`PartitionStats::from_counts`] (the single source of truth
//!   for derived metrics) into a [`BalanceReport`].
//! * **Planner** — [`plan_migration`] turns an over-threshold report
//!   into a bounded [`MigrationPlan`]: greedy selection of border
//!   vertices on overloaded fragments, scored by load reduction minus
//!   new cut edges, moved to the best underloaded target. Budgeted so a
//!   rebalance round never stalls serving.
//! * **Executor** — [`execute_migration`] applies the plan in place:
//!   [`aap_graph::mutate::migrate_edge_cut`] for edge-cut
//!   fragments, [`aap_graph::mutate::migrate_vertex_cut`] — the
//!   delta path's planner and splice, with the moves as forced owners —
//!   for vertex-cut. Both return an
//!   [`AppliedEdit`] whose `StateRemap`s carry retained warm state with
//!   the migrated vertices — the next round is warm, never cold.
//!
//! The session facade (`aap-session`) wires these together behind
//! `SessionBuilder::balance(BalancePolicy)` and `Session::rebalance()`.

use aap_graph::fragment::{fragment_cut_edges, PartitionStats};
use aap_graph::mutate::{
    migrate_edge_cut, migrate_vertex_cut, AppliedEdit, StateRemap, VertexMove,
};
use aap_graph::{FragId, Fragment, LocalId, VertexId};
use aap_trace::{cat, pid, Args, Tracer};
use std::borrow::Borrow;

/// When to rebalance and how much to move per round.
///
/// Built fluently, mirroring `DurabilityPolicy`:
///
/// ```
/// use aap_balance::BalancePolicy;
/// let policy = BalancePolicy::new().max_imbalance(1.2).migration_budget(512).auto(true);
/// assert!(policy.auto);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BalancePolicy {
    /// Trigger threshold on `max/mean` fragment load; 1.0 is perfect
    /// balance. A plan aims to bring the load ratio back under this.
    pub max_imbalance: f64,
    /// Maximum vertices migrated per rebalance round. Bounds the repack
    /// work (and thus the serving-latency blip) of one round; persistent
    /// skew is drained over several rounds instead of one huge fence.
    pub migration_budget: usize,
    /// When true, the session rebalances opportunistically after an
    /// apply that leaves the partition over threshold.
    pub auto: bool,
}

impl BalancePolicy {
    /// Defaults: trigger above 1.15, move at most 1024 vertices per
    /// round, explicit `rebalance()` calls only.
    pub fn new() -> Self {
        BalancePolicy { max_imbalance: 1.15, migration_budget: 1024, auto: false }
    }

    /// Set the `max/mean` load ratio above which a plan is produced.
    pub fn max_imbalance(mut self, r: f64) -> Self {
        assert!(r >= 1.0, "imbalance threshold is a max/mean ratio, so >= 1.0");
        self.max_imbalance = r;
        self
    }

    /// Set the per-round migration budget (vertices).
    pub fn migration_budget(mut self, k: usize) -> Self {
        self.migration_budget = k;
        self
    }

    /// Enable or disable automatic rebalancing after applies.
    pub fn auto(mut self, on: bool) -> Self {
        self.auto = on;
        self
    }
}

impl Default for BalancePolicy {
    fn default() -> Self {
        BalancePolicy::new()
    }
}

/// Incremental drift tracker: per-fragment counts maintained across
/// applies without rescanning untouched fragments.
#[derive(Debug, Clone)]
pub struct BalanceMonitor {
    vertex_cut: bool,
    owned: Vec<usize>,
    edges: Vec<usize>,
    mirrors: Vec<usize>,
    cut_edges: Vec<usize>,
    touches: Vec<u64>,
}

impl BalanceMonitor {
    /// Full scan of the fragment set — done once; afterwards only
    /// [`refresh`](BalanceMonitor::refresh) on changed fragments.
    pub fn new<V, E, F: Borrow<Fragment<V, E>>>(frags: &[F]) -> Self {
        let mut mon = BalanceMonitor {
            vertex_cut: frags.first().map(|f| f.borrow().is_vertex_cut()).unwrap_or(false),
            owned: vec![0; frags.len()],
            edges: vec![0; frags.len()],
            mirrors: vec![0; frags.len()],
            cut_edges: vec![0; frags.len()],
            touches: vec![0; frags.len()],
        };
        let all = vec![true; frags.len()];
        mon.refresh(frags, &all);
        mon
    }

    /// Re-count only the fragments an apply changed (`changed` is the
    /// per-fragment flag vector of the applied edit).
    pub fn refresh<V, E, F: Borrow<Fragment<V, E>>>(&mut self, frags: &[F], changed: &[bool]) {
        for (i, f) in frags.iter().enumerate() {
            if !changed.get(i).copied().unwrap_or(false) {
                continue;
            }
            let f = f.borrow();
            self.owned[i] = f.owned_count();
            self.edges[i] = f.edge_count();
            self.mirrors[i] = f.mirror_count();
            self.cut_edges[i] = fragment_cut_edges(f);
        }
    }

    /// Accumulate delta-touch counts (how many vertices each fragment
    /// had seeded/invalidated by recent applies).
    pub fn record_touches(&mut self, per_frag: &[usize]) {
        for (t, &n) in self.touches.iter_mut().zip(per_frag) {
            *t += n as u64;
        }
    }

    /// Number of fragments tracked.
    pub fn num_frags(&self) -> usize {
        self.owned.len()
    }

    /// Snapshot the tracked counts into a report.
    pub fn report(&self) -> BalanceReport {
        let loads = fragment_loads(self.vertex_cut, &self.owned, &self.edges);
        let imbalance = load_ratio(&loads);
        let stats = PartitionStats::from_counts(
            self.owned.clone(),
            self.edges.clone(),
            self.mirrors.clone(),
            self.cut_edges.iter().sum(),
        );
        BalanceReport { stats, loads, touches: self.touches.clone(), imbalance }
    }
}

/// Point-in-time view of partition drift, produced by the monitor.
#[derive(Debug, Clone, PartialEq)]
pub struct BalanceReport {
    /// Full partition statistics (replication factor, skew, balance
    /// ratios) derived from the incrementally maintained counts.
    pub stats: PartitionStats,
    /// Per-fragment load: `owned + stored edges` under edge-cut (moving
    /// a vertex moves its adjacency row), `owned` under vertex-cut
    /// (edges are pair-hash pinned; only ownership migrates).
    pub loads: Vec<u64>,
    /// Cumulative delta-touch counts per fragment since monitoring
    /// began — which fragments the workload is hammering.
    pub touches: Vec<u64>,
    /// `max/mean` over [`loads`](BalanceReport::loads); the number the
    /// policy thresholds on.
    pub imbalance: f64,
}

impl BalanceReport {
    /// True when the load ratio exceeds the policy threshold.
    pub fn over(&self, policy: &BalancePolicy) -> bool {
        self.imbalance > policy.max_imbalance
    }
}

/// A bounded set of ownership moves, ready for [`execute_migration`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MigrationPlan {
    /// `(vertex, destination fragment)`, deduped; under vertex-cut every
    /// destination already holds a copy of the vertex.
    pub moves: Vec<VertexMove>,
    /// Estimated payload of the migration (vertex + carried edge data),
    /// for the `migration_bytes` metric.
    pub bytes: u64,
    /// The `max/mean` load ratio the planner expects after the plan.
    pub predicted_imbalance: f64,
}

impl MigrationPlan {
    /// True when there is nothing to do.
    pub fn is_empty(&self) -> bool {
        self.moves.is_empty()
    }
}

fn fragment_loads(vertex_cut: bool, owned: &[usize], edges: &[usize]) -> Vec<u64> {
    if vertex_cut {
        owned.iter().map(|&o| o as u64).collect()
    } else {
        owned.iter().zip(edges).map(|(&o, &e)| (o + e) as u64).collect()
    }
}

fn load_ratio(loads: &[u64]) -> f64 {
    let total: u64 = loads.iter().sum();
    if total == 0 || loads.is_empty() {
        return 1.0;
    }
    let mean = total as f64 / loads.len() as f64;
    loads.iter().copied().max().unwrap_or(0) as f64 / mean
}

/// Produce a budget-bounded migration plan for the current fragment set.
///
/// Deterministic: fragments are scanned in index order, candidates in
/// local-id order, targets tie-broken by `(cut delta, load, index)`.
/// Returns an empty plan when the partition is already under the policy
/// threshold or nothing movable improves it.
pub fn plan_migration<V, E, F: Borrow<Fragment<V, E>>>(
    frags: &[F],
    policy: &BalancePolicy,
    tracer: &Tracer,
) -> MigrationPlan {
    let view: Vec<&Fragment<V, E>> = frags.iter().map(|f| f.borrow()).collect();
    if view.len() < 2 {
        return MigrationPlan::default();
    }
    let traced = tracer.enabled();
    if traced {
        tracer.begin(pid::DELTA, 0, cat::BALANCE, "plan", Args::new().with("frags", view.len()));
    }
    let plan = if view[0].is_vertex_cut() {
        plan_vertex_cut(&view, policy)
    } else {
        plan_edge_cut(&view, policy)
    };
    if traced {
        tracer.end(
            pid::DELTA,
            0,
            cat::BALANCE,
            "plan",
            Args::new().with("moves", plan.moves.len()).with("bytes", plan.bytes as usize),
        );
    }
    plan
}

/// Greedy edge-cut planner: walk border vertices of the most loaded
/// fragment and pour them into a *sticky* fill target — the least
/// loaded fragment, kept until it reaches the mean — until the ratio is
/// under threshold, the budget is spent, or no candidate improves.
///
/// Concentrating a round's moves on as few destination fragments as
/// possible is deliberate: the executor repacks exactly the fragments
/// that gain or lose owned rows (the rest are metadata patches), so a
/// narrow destination set keeps rebalance latency move-proportional
/// instead of partition-proportional.
fn plan_edge_cut<V, E>(frags: &[&Fragment<V, E>], policy: &BalancePolicy) -> MigrationPlan {
    let m = frags.len();
    let mut loads: Vec<i64> =
        frags.iter().map(|f| (f.owned_count() + f.edge_count()) as i64).collect();
    let total: i64 = loads.iter().sum();
    if total == 0 {
        return MigrationPlan::default();
    }
    let mean = total as f64 / m as f64;

    let mut plan = MigrationPlan::default();
    let mut candidates: Vec<Option<Vec<LocalId>>> = vec![None; m];
    let mut cursor = vec![0usize; m];
    let mut frozen = vec![false; m];
    let mut fill: Option<usize> = None;

    while plan.moves.len() < policy.migration_budget {
        // Most loaded un-frozen fragment, smallest index on ties.
        let Some(src) =
            (0..m).filter(|&i| !frozen[i]).fold(None, |best: Option<usize>, i| match best {
                Some(b) if loads[b] >= loads[i] => Some(b),
                _ => Some(i),
            })
        else {
            break;
        };
        if loads[src] as f64 / mean <= policy.max_imbalance {
            break;
        }
        let f = frags[src];
        let cand = candidates[src].get_or_insert_with(|| {
            // Border vertices first: moving one can heal cut edges.
            // An overloaded fragment with no border (disconnected from
            // the rest) still drains through its plain owned vertices.
            let mut c: Vec<LocalId> =
                f.inner_out().iter().chain(f.inner_in().iter()).copied().collect();
            c.sort_unstable();
            c.dedup();
            if c.is_empty() {
                c = f.owned_vertices().collect();
            }
            c
        });

        let mut chosen: Option<(VertexId, FragId, i64, usize)> = None;
        while cursor[src] < cand.len() {
            let l = cand[cursor[src]];
            cursor[src] += 1;
            let deg = f.neighbors(l).len();
            let w = 1 + deg as i64;
            // Keep pouring into the current fill target while it is
            // still below the mean and can absorb this vertex; pick the
            // least-loaded eligible fragment (smallest index on ties)
            // when it saturates.
            let target = match fill {
                Some(j) if j != src && (loads[j] as f64) < mean && loads[j] + w < loads[src] => {
                    Some(j)
                }
                _ => {
                    let j = (0..m)
                        .filter(|&j| j != src && loads[j] + w < loads[src])
                        .min_by_key(|&j| (loads[j], j));
                    fill = j;
                    j
                }
            };
            if let Some(j) = target {
                chosen = Some((f.global(l), j as FragId, w, deg));
                break;
            }
        }
        match chosen {
            Some((v, to, w, deg)) => {
                loads[src] -= w;
                loads[to as usize] += w;
                plan.moves.push((v, to));
                plan.bytes += (std::mem::size_of::<V>()
                    + deg * (std::mem::size_of::<E>() + std::mem::size_of::<VertexId>()))
                    as u64;
            }
            None => frozen[src] = true,
        }
    }
    plan.predicted_imbalance =
        load_ratio(&loads.iter().map(|&l| l.max(0) as u64).collect::<Vec<_>>());
    plan
}

/// Greedy vertex-cut planner: ownership may only move to a fragment that
/// already holds a copy (edges are pair-hash pinned), so candidates are
/// the replicated border vertices and the move itself is nearly free.
fn plan_vertex_cut<V, E>(frags: &[&Fragment<V, E>], policy: &BalancePolicy) -> MigrationPlan {
    let m = frags.len();
    let mut loads: Vec<i64> = frags.iter().map(|f| f.owned_count() as i64).collect();
    let total: i64 = loads.iter().sum();
    if total == 0 {
        return MigrationPlan::default();
    }
    let mean = total as f64 / m as f64;

    let mut plan = MigrationPlan::default();
    let mut cursor = vec![0usize; m];
    let mut frozen = vec![false; m];

    while plan.moves.len() < policy.migration_budget {
        let Some(src) =
            (0..m).filter(|&i| !frozen[i]).fold(None, |best: Option<usize>, i| match best {
                Some(b) if loads[b] >= loads[i] => Some(b),
                _ => Some(i),
            })
        else {
            break;
        };
        if loads[src] as f64 / mean <= policy.max_imbalance {
            break;
        }
        let f = frags[src];
        // inner_in lists the replicated owned vertices under vertex-cut.
        let border = f.inner_in();
        let mut chosen: Option<(VertexId, FragId)> = None;
        while cursor[src] < border.len() {
            let l = border[cursor[src]];
            cursor[src] += 1;
            let mut best: Option<(i64, FragId)> = None;
            for &h in f.mirror_holders(l) {
                if loads[h as usize] + 1 < loads[src]
                    && best.is_none_or(|b| (loads[h as usize], h) < b)
                {
                    best = Some((loads[h as usize], h));
                }
            }
            if let Some((_, h)) = best {
                chosen = Some((f.global(l), h));
                break;
            }
        }
        match chosen {
            Some((v, to)) => {
                loads[src] -= 1;
                loads[to as usize] += 1;
                plan.moves.push((v, to));
                plan.bytes += std::mem::size_of::<V>().max(1) as u64;
            }
            None => frozen[src] = true,
        }
    }
    plan.predicted_imbalance =
        load_ratio(&loads.iter().map(|&l| l.max(0) as u64).collect::<Vec<_>>());
    plan
}

/// Apply a migration plan in place.
///
/// Dispatches on the cut kind: edge-cut goes through
/// [`migrate_edge_cut`] (ownership + adjacency rows move), vertex-cut
/// through [`migrate_vertex_cut`] (ownership flips between existing
/// copies, rows stay; the same planner and splice a vertex-cut delta
/// runs through). The returned [`AppliedEdit`] carries the
/// [`StateRemap`]s and seeds the session uses to migrate retained warm
/// state.
pub fn execute_migration<V, E>(
    frags: &mut [&mut Fragment<V, E>],
    plan: &MigrationPlan,
    tracer: &Tracer,
) -> AppliedEdit
where
    V: Clone + Send + Sync,
    E: Clone + PartialOrd + Send + Sync,
{
    if plan.moves.is_empty() {
        return AppliedEdit {
            remaps: frags.iter().map(|f| StateRemap::identity(f.local_count())).collect(),
            seeds: vec![Vec::new(); frags.len()],
            weights_decreased: 0,
            weights_increased: 0,
            changed: vec![false; frags.len()],
        };
    }
    if frags.first().is_some_and(|f| f.is_vertex_cut()) {
        migrate_vertex_cut(frags, &plan.moves, tracer)
    } else {
        migrate_edge_cut(frags, &plan.moves, tracer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aap_graph::generate::small_world;
    use aap_graph::partition::{
        build_fragments_n, build_fragments_vertex_cut_n, vertex_cut_partition,
    };

    /// A deliberately skewed edge-cut assignment: most vertices on
    /// fragment 0.
    fn skewed_frags(m: FragId) -> Vec<Fragment<(), u32>> {
        let g = small_world(120, 3, 0.2, 9);
        let assignment: Vec<FragId> = (0..120u32)
            .map(|v| if v < 80 { 0 } else { 1 + (v % (m as u32 - 1)) as FragId })
            .collect();
        build_fragments_n(&g, &assignment, m as usize)
    }

    #[test]
    fn policy_builder() {
        let p = BalancePolicy::new();
        assert!((p.max_imbalance - 1.15).abs() < 1e-9);
        assert!(!p.auto);
        let p = p.max_imbalance(1.3).migration_budget(7).auto(true);
        assert!((p.max_imbalance - 1.3).abs() < 1e-9);
        assert_eq!(p.migration_budget, 7);
        assert!(p.auto);
    }

    #[test]
    fn monitor_incremental_matches_full_scan() {
        let mut frags = skewed_frags(3);
        let mut mon = BalanceMonitor::new(&frags);
        assert!(mon.report().imbalance > 1.15, "fixture should start skewed");

        let policy = BalancePolicy::new().migration_budget(64);
        let plan = plan_migration(&frags, &policy, &Tracer::default());
        assert!(!plan.is_empty());
        let applied = {
            let mut refs: Vec<&mut Fragment<(), u32>> = frags.iter_mut().collect();
            execute_migration(&mut refs, &plan, &Tracer::default())
        };
        mon.refresh(&frags, &applied.changed);
        mon.record_touches(&applied.seeds.iter().map(|s| s.len()).collect::<Vec<_>>());

        // The incrementally maintained stats equal a from-scratch scan.
        let fresh = BalanceMonitor::new(&frags).report();
        let inc = mon.report();
        assert_eq!(inc.stats, fresh.stats);
        assert_eq!(inc.loads, fresh.loads);
        assert!(inc.touches.iter().sum::<u64>() > 0);
    }

    #[test]
    fn edge_cut_plan_reduces_imbalance_within_budget() {
        let mut frags = skewed_frags(4);
        let before = BalanceMonitor::new(&frags).report().imbalance;
        let policy = BalancePolicy::new().migration_budget(500);
        let plan = plan_migration(&frags, &policy, &Tracer::default());
        assert!(!plan.is_empty());
        assert!(plan.moves.len() <= 500);
        assert!(plan.bytes > 0);
        {
            let mut refs: Vec<&mut Fragment<(), u32>> = frags.iter_mut().collect();
            execute_migration(&mut refs, &plan, &Tracer::default());
        }
        let after = BalanceMonitor::new(&frags).report().imbalance;
        assert!(after < before, "imbalance {before} -> {after} should drop");
        assert!(
            (after - plan.predicted_imbalance).abs() < 0.25,
            "prediction {} vs real {after}",
            plan.predicted_imbalance
        );
    }

    #[test]
    fn vertex_cut_plan_moves_only_to_holders() {
        let g = small_world(80, 3, 0.25, 5);
        let ea = vertex_cut_partition(&g, 4);
        let mut frags = build_fragments_vertex_cut_n(&g, &ea, 4);
        let total_owned: usize = frags.iter().map(|f| f.owned_count()).sum();
        let policy = BalancePolicy::new().max_imbalance(1.0).migration_budget(20);
        let plan = plan_migration(&frags, &policy, &Tracer::default());
        for &(v, to) in &plan.moves {
            let holder = frags.iter().any(|f| {
                f.local(v).is_some_and(|l| f.is_owned(l) && f.mirror_holders(l).contains(&to))
            });
            assert!(holder, "move of {v} targets non-holder {to}");
        }
        if !plan.is_empty() {
            let mut refs: Vec<&mut Fragment<(), u32>> = frags.iter_mut().collect();
            execute_migration(&mut refs, &plan, &Tracer::default());
        }
        assert_eq!(frags.iter().map(|f| f.owned_count()).sum::<usize>(), total_owned);
    }

    #[test]
    fn balanced_partition_yields_empty_plan() {
        let g = small_world(64, 2, 0.1, 2);
        let assignment: Vec<FragId> = (0..64u32).map(|v| (v % 4) as FragId).collect();
        let frags = build_fragments_n(&g, &assignment, 4);
        let plan =
            plan_migration(&frags, &BalancePolicy::new().max_imbalance(1.5), &Tracer::default());
        assert!(plan.is_empty());
    }
}
