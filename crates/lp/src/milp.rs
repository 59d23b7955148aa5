//! Work-stealing branch-and-bound mixed-integer solver over the simplex
//! relaxation.
//!
//! [`solve_milp`] spreads the tree over `opts.threads` workers, each
//! owning a LIFO deque (depth-first locally: good incumbents early,
//! bounded memory) whose oldest entries — the nodes closest to the root,
//! i.e. the largest subtrees — can be stolen by idle siblings. A shared
//! [`Injector`] seeds the root and absorbs nothing else; after that, load
//! balance is pure stealing. With `threads <= 1` the single worker runs on
//! the calling thread and no thread is spawned.
//!
//! Each node prunes against the best bound, branches on the most
//! fractional integer variable, and explores the nearest-integer child
//! first. Search is bounded two ways: a deterministic node budget and an
//! optional wall-clock [`Deadline`](crate::deadline::Deadline) carried in
//! `opts.lp`. Either limit returns the best incumbent with
//! [`MilpStatus::Feasible`] — mirroring how the paper's authors would run
//! CPLEX with a limit on hard instances — and a tripped deadline is
//! reported via [`MilpResult::deadline_hit`]. RAHTM seeds the search with
//! a simulated-annealing incumbent (`initial_incumbent`), which both
//! prunes aggressively and guarantees a usable mapping even at tiny
//! budgets.
//!
//! ## Why node results don't depend on interleaving
//!
//! Each node carries everything its LP solve depends on: the accumulated
//! bound overrides *and* the parent's optimal basis
//! ([`BasisSnapshot`]), captured at branch time. A worker installs both
//! into its private [`SimplexScratch`] and repairs the basis with a
//! bounded dual simplex ([`SimplexScratch::resolve_from_basis`]), falling
//! back to the full two-phase solve on any stall — both paths are pure
//! functions of `(overrides, snapshot)`, so a node produces bit-identical
//! `(status, objective, x)` no matter which worker runs it or when.
//!
//! ## Determinism rule
//!
//! The shared incumbent is ordered by `(objective, x)`: a candidate
//! replaces the incumbent when its objective is strictly smaller, or equal
//! with a lexicographically smaller solution vector. Combined with
//! interleaving-independent node results, the returned optimum is
//! bit-identical for any thread count whenever the true optimum is
//! separated from the runner-up by more than `REL_GAP·max(|obj|, 1)` (the
//! pruning slack; `REL_GAP` = 1e-9): every schedule then explores some node
//! whose solution is that optimum, and the `(objective, x)` order picks the
//! same winner regardless of discovery order. Optima tied within the gap
//! slack may be pruned against each other in schedule-dependent order, and
//! budget- or deadline-truncated searches are best-effort. With more than
//! one worker, `nodes`/`best_bound` are diagnostics and may vary across
//! schedules; a single worker is fully deterministic.

use crate::problem::Problem;
use crate::simplex::{BasisSnapshot, LpStatus, SimplexOptions, SimplexScratch};
use crossbeam::deque::{Injector, Steal, Stealer, Worker};
use parking_lot::Mutex;
use rahtm_obs::counters;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Termination status of a MILP solve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MilpStatus {
    /// Incumbent proven optimal.
    Optimal,
    /// Budget exhausted; incumbent available but not proven optimal.
    Feasible,
    /// Proven infeasible.
    Infeasible,
    /// Budget exhausted with no incumbent found.
    Unknown,
}

/// Result of a MILP solve.
#[derive(Clone, Debug)]
pub struct MilpResult {
    /// Termination status.
    pub status: MilpStatus,
    /// Best objective found (minimization; `NAN` if no incumbent).
    pub objective: f64,
    /// Best solution found (empty if no incumbent).
    pub x: Vec<f64>,
    /// Branch-and-bound nodes processed.
    pub nodes: usize,
    /// Best lower bound on the optimum at termination (−∞ if unknown).
    pub best_bound: f64,
    /// Whether the wall-clock deadline (not the node budget) cut the search
    /// short. Lets callers distinguish "budget-shaped as configured" from
    /// "out of time" when deciding how far to degrade.
    pub deadline_hit: bool,
}

/// Integrality tolerance: an LP value this close to an integer is integral.
const INT_TOL: f64 = 1e-6;
/// Relative optimality gap: a bound within `REL_GAP·max(|incumbent|, 1)`
/// of the incumbent prunes its node and still counts as a proof of
/// [`MilpStatus::Optimal`].
const REL_GAP: f64 = 1e-9;

/// Solver knobs.
#[derive(Clone, Debug)]
pub struct MilpOptions {
    /// LP sub-solver options.
    pub lp: SimplexOptions,
    /// Node budget.
    pub max_nodes: usize,
    /// Optional warm incumbent: a feasible integral point.
    pub initial_incumbent: Option<Vec<f64>>,
    /// Branch-and-bound workers. `0` or `1` (the default) runs one worker
    /// on the calling thread; larger values spawn that many work-stealing
    /// workers. The optimum does not depend on this (see the module docs
    /// for the exact determinism rule).
    pub threads: usize,
}

impl Default for MilpOptions {
    fn default() -> Self {
        MilpOptions {
            lp: SimplexOptions::default(),
            max_nodes: 10_000,
            initial_incumbent: None,
            threads: 1,
        }
    }
}

/// A branch-and-bound node in flight between workers.
struct Node {
    /// `(col, lower, upper)` overrides accumulated from the root.
    overrides: Vec<(usize, f64, f64)>,
    /// LP bound inherited from the parent (prune before solving).
    parent_bound: f64,
    /// Parent's optimal basis for the dual-simplex warm start (shared by
    /// both children; `None` when the parent had no reusable basis).
    snapshot: Option<Arc<BasisSnapshot>>,
}

/// Best-known integral solution, guarded by one mutex; `best_bits` mirrors
/// `obj` for cheap lock-free prune reads.
struct Incumbent {
    obj: f64,
    x: Option<Vec<f64>>,
}

struct Shared<'a> {
    p: &'a Problem,
    opts: &'a MilpOptions,
    int_cols: Vec<usize>,
    injector: Injector<Node>,
    stealers: Vec<Stealer<Node>>,
    incumbent: Mutex<Incumbent>,
    /// `f64::to_bits` of the incumbent objective (`+inf` when none).
    best_bits: AtomicU64,
    /// Nodes queued or being processed; workers exit when it hits zero.
    pending: AtomicUsize,
    /// Node-budget tickets claimed (== nodes whose LP was solved).
    explored: AtomicUsize,
    exhausted: AtomicBool,
    deadline_hit: AtomicBool,
    /// A worker panicked; siblings must stop spinning and unwind too.
    poisoned: AtomicBool,
    /// Parent bounds of subtrees dropped by budget/deadline/LP limits.
    open_bounds: Mutex<Vec<f64>>,
}

/// Per-worker tallies, summed into the obs counters after the join.
#[derive(Default)]
struct WorkerStats {
    pruned: u64,
    incumbent_updates: u64,
    lp_solves: u64,
    pivots: u64,
    polls: u64,
}

/// Flags `poisoned` if the worker body unwinds, so idle siblings stop
/// waiting for `pending` to drain and the scope can propagate the panic.
struct PanicGuard<'a>(&'a AtomicBool);

impl Drop for PanicGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Release);
        }
    }
}

/// Solves the mixed-integer problem `p` by branch and bound.
///
/// # Panics
/// Panics if a provided incumbent is not feasible/integral for `p`.
pub fn solve_milp(p: &Problem, opts: &MilpOptions) -> MilpResult {
    let mut best_obj = f64::INFINITY;
    let mut best_x: Option<Vec<f64>> = None;
    if let Some(inc) = &opts.initial_incumbent {
        assert!(
            p.is_feasible(inc, 1e-6) && p.is_integral(inc, 1e-6),
            "warm incumbent is not feasible/integral"
        );
        best_obj = p.objective_value(inc);
        best_x = Some(inc.clone());
    }

    let workers: Vec<Worker<Node>> =
        (0..opts.threads.max(1)).map(|_| Worker::new_lifo()).collect();
    let shared = Shared {
        p,
        opts,
        int_cols: p.integer_cols().iter().map(|c| c.index()).collect(),
        injector: Injector::new(),
        stealers: workers.iter().map(Worker::stealer).collect(),
        incumbent: Mutex::new(Incumbent {
            obj: best_obj,
            x: best_x,
        }),
        best_bits: AtomicU64::new(best_obj.to_bits()),
        pending: AtomicUsize::new(1),
        explored: AtomicUsize::new(0),
        exhausted: AtomicBool::new(false),
        deadline_hit: AtomicBool::new(false),
        poisoned: AtomicBool::new(false),
        open_bounds: Mutex::new(Vec::new()),
    };
    shared.injector.push(Node {
        overrides: Vec::new(),
        parent_bound: f64::NEG_INFINITY,
        snapshot: None,
    });

    let stats: Vec<WorkerStats> = if workers.len() == 1 {
        workers
            .into_iter()
            .map(|local| worker_loop(0, local, &shared))
            .collect()
    } else {
        crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = workers
                .into_iter()
                .enumerate()
                .map(|(i, local)| {
                    let shared = &shared;
                    scope.spawn(move |_| worker_loop(i, local, shared))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(s) => s,
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        })
        .unwrap_or_default()
    };

    let explored = shared.explored.load(Ordering::Acquire);
    let exhausted = shared.exhausted.load(Ordering::Acquire);
    let deadline_hit = shared.deadline_hit.load(Ordering::Acquire);
    let Incumbent { obj: best_obj, x: best_x } = shared.incumbent.into_inner();
    let open_bounds = shared.open_bounds.into_inner();

    let rec = &opts.lp.recorder;
    rec.add(counters::BNB_NODES_EXPLORED, explored as u64);
    rec.add(counters::BNB_NODES_PRUNED, stats.iter().map(|s| s.pruned).sum());
    rec.add(counters::DEADLINE_CHECKS, stats.iter().map(|s| s.polls).sum());
    rec.add(counters::SIMPLEX_SOLVES, stats.iter().map(|s| s.lp_solves).sum());
    rec.add(counters::SIMPLEX_PIVOTS, stats.iter().map(|s| s.pivots).sum());
    rec.add(
        counters::MILP_INCUMBENT_UPDATES,
        stats.iter().map(|s| s.incumbent_updates).sum(),
    );

    let open_min = open_bounds.iter().cloned().fold(f64::INFINITY, f64::min);
    let best_bound = if exhausted {
        open_min.min(best_obj)
    } else {
        best_obj
    };
    match best_x {
        Some(x) => MilpResult {
            status: if exhausted && best_bound < best_obj - gap_slack(best_obj) {
                MilpStatus::Feasible
            } else {
                MilpStatus::Optimal
            },
            objective: best_obj,
            x,
            nodes: explored,
            best_bound,
            deadline_hit,
        },
        None => MilpResult {
            status: if exhausted {
                MilpStatus::Unknown
            } else {
                MilpStatus::Infeasible
            },
            objective: f64::NAN,
            x: Vec::new(),
            nodes: explored,
            best_bound,
            deadline_hit,
        },
    }
}

fn worker_loop(index: usize, local: Worker<Node>, shared: &Shared<'_>) -> WorkerStats {
    let _guard = PanicGuard(&shared.poisoned);
    let mut scratch = SimplexScratch::new(shared.p);
    let mut stats = WorkerStats::default();
    loop {
        let node = local
            .pop()
            .or_else(|| shared.injector.steal().success())
            .or_else(|| {
                let k = shared.stealers.len();
                (1..k).find_map(|off| match shared.stealers[(index + off) % k].steal() {
                    Steal::Success(n) => Some(n),
                    _ => None,
                })
            });
        let Some(node) = node else {
            if shared.pending.load(Ordering::Acquire) == 0
                || shared.poisoned.load(Ordering::Acquire)
            {
                break;
            }
            std::thread::yield_now();
            continue;
        };
        process(node, &local, &mut scratch, shared, &mut stats);
        shared.pending.fetch_sub(1, Ordering::AcqRel);
    }
    stats
}

/// One node: budget check, deadline poll, bound prune, LP (re-)solve, then
/// either an incumbent update or a branch pushing two children onto the
/// local deque with the nearest-integer child on top.
fn process(
    node: Node,
    local: &Worker<Node>,
    scratch: &mut SimplexScratch,
    shared: &Shared<'_>,
    stats: &mut WorkerStats,
) {
    let opts = shared.opts;
    if shared.explored.load(Ordering::Acquire) >= opts.max_nodes {
        shared.exhausted.store(true, Ordering::Release);
        shared.open_bounds.lock().push(node.parent_bound);
        return;
    }
    stats.polls += 1;
    if opts.lp.deadline.is_expired() {
        shared.exhausted.store(true, Ordering::Release);
        shared.deadline_hit.store(true, Ordering::Release);
        shared.open_bounds.lock().push(node.parent_bound);
        return;
    }
    let best = f64::from_bits(shared.best_bits.load(Ordering::Acquire));
    if node.parent_bound >= best - gap_slack(best) {
        stats.pruned += 1;
        return;
    }
    shared.explored.fetch_add(1, Ordering::AcqRel);

    scratch.set_node_bounds(&node.overrides);
    let (sol, polls) = match &node.snapshot {
        Some(snap) => scratch.resolve_from_basis(snap, &opts.lp),
        None => scratch.solve_fresh(&opts.lp),
    };
    stats.lp_solves += 1;
    stats.pivots += sol.iterations as u64;
    stats.polls += polls as u64;

    match sol.status {
        LpStatus::Infeasible => return,
        LpStatus::Unbounded => {
            // With bounded integers this means the continuous part is
            // unbounded: no incumbent can bound it, so the subtree stays
            // open at −∞.
            shared.open_bounds.lock().push(f64::NEG_INFINITY);
            shared.exhausted.store(true, Ordering::Release);
            return;
        }
        LpStatus::IterLimit => {
            shared.open_bounds.lock().push(node.parent_bound);
            shared.exhausted.store(true, Ordering::Release);
            return;
        }
        LpStatus::TimeLimit => {
            shared.open_bounds.lock().push(node.parent_bound);
            shared.exhausted.store(true, Ordering::Release);
            shared.deadline_hit.store(true, Ordering::Release);
            return;
        }
        LpStatus::Optimal => {}
    }
    let bound = sol.objective;
    let best = f64::from_bits(shared.best_bits.load(Ordering::Acquire));
    if bound >= best - gap_slack(best) {
        stats.pruned += 1;
        return;
    }
    // Most fractional integer variable.
    let mut branch: Option<(usize, f64)> = None;
    let mut best_frac = INT_TOL;
    for &j in &shared.int_cols {
        let v = sol.x[j];
        let frac = (v - v.round()).abs();
        if frac > best_frac {
            best_frac = frac;
            branch = Some((j, v));
        }
    }
    match branch {
        None => {
            let mut x = sol.x.clone();
            for &j in &shared.int_cols {
                x[j] = x[j].round();
            }
            let obj = shared.p.objective_value(&x);
            if obj <= f64::from_bits(shared.best_bits.load(Ordering::Acquire))
                && shared.p.is_feasible(&x, 1e-5)
            {
                let mut inc = shared.incumbent.lock();
                let better = match &inc.x {
                    None => obj < inc.obj || inc.obj.is_infinite(),
                    // lexicographic tie-break (x is finite by construction)
                    Some(bx) => obj < inc.obj || (obj == inc.obj && x.as_slice() < bx.as_slice()),
                };
                if better {
                    inc.obj = obj;
                    inc.x = Some(x);
                    shared.best_bits.store(obj.to_bits(), Ordering::Release);
                    stats.incumbent_updates += 1;
                }
            }
        }
        Some((j, v)) => {
            let floor = v.floor();
            let (node_lo, node_hi) = scratch.bounds(j);
            let snap = scratch.snapshot().map(Arc::new);
            let child = |lo: f64, hi: f64, snapshot: Option<Arc<BasisSnapshot>>| {
                let mut overrides = node.overrides.clone();
                overrides.push((j, lo, hi));
                fix_override(&mut overrides, j);
                Node {
                    overrides,
                    parent_bound: bound,
                    snapshot,
                }
            };
            let lo_child = child(node_lo, floor, snap.clone());
            let hi_child = child(floor + 1.0, node_hi, snap);
            // LIFO deque: push the nearest-integer child last so it pops
            // first.
            shared.pending.fetch_add(2, Ordering::AcqRel);
            if v - floor <= 0.5 {
                local.push(hi_child);
                local.push(lo_child);
            } else {
                local.push(lo_child);
                local.push(hi_child);
            }
        }
    }
}

/// Absolute slack corresponding to [`REL_GAP`].
fn gap_slack(best_obj: f64) -> f64 {
    if best_obj.is_finite() {
        REL_GAP * best_obj.abs().max(1.0)
    } else {
        0.0
    }
}

/// Collapse repeated overrides of the same column into their intersection
/// (keeps the override list minimal and the interval consistent).
fn fix_override(ov: &mut Vec<(usize, f64, f64)>, j: usize) {
    let mut lo = f64::NEG_INFINITY;
    let mut hi = f64::INFINITY;
    for &(c, l, h) in ov.iter() {
        if c == j {
            lo = lo.max(l);
            hi = hi.min(h);
        }
    }
    ov.retain(|&(c, _, _)| c != j);
    // Branching always splits an integer variable's interval at
    // floor < ceil inside its current bounds, so the intersection is never
    // empty.
    if lo > hi {
        unreachable!("branching produced an empty interval");
    }
    ov.push((j, lo, hi));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Problem, Sense};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    fn threaded(n: usize) -> MilpOptions {
        MilpOptions {
            threads: n,
            ..Default::default()
        }
    }

    #[test]
    fn knapsack_3_items() {
        // max 5a + 4b + 3c st 2a + 3b + c <= 5, binary -> optimum 9 (a,b)
        let mut p = Problem::new();
        let a = p.add_bin_col("a", -5.0);
        let b = p.add_bin_col("b", -4.0);
        let c = p.add_bin_col("c", -3.0);
        p.add_row(Sense::Le, 5.0, &[(a, 2.0), (b, 3.0), (c, 1.0)]);
        for threads in [1, 4] {
            let r = solve_milp(&p, &threaded(threads));
            assert_eq!(r.status, MilpStatus::Optimal, "threads {threads}");
            assert_close(r.objective, -9.0);
            assert_eq!(r.x, vec![1.0, 1.0, 0.0], "threads {threads}");
            assert!(r.nodes >= 1);
        }
    }

    #[test]
    fn integrality_changes_optimum() {
        // max x st 2x <= 3: LP gives 1.5, ILP gives 1
        let mut p = Problem::new();
        let x = p.add_int_col("x", 0.0, 10.0, -1.0);
        p.add_row(Sense::Le, 3.0, &[(x, 2.0)]);
        let r = solve_milp(&p, &MilpOptions::default());
        assert_eq!(r.status, MilpStatus::Optimal);
        assert_close(r.objective, -1.0);
        assert_close(r.x[0], 1.0);
    }

    #[test]
    fn infeasible_milp() {
        let mut p = Problem::new();
        let x = p.add_bin_col("x", 1.0);
        let y = p.add_bin_col("y", 1.0);
        p.add_row(Sense::Ge, 3.0, &[(x, 1.0), (y, 1.0)]);
        for threads in [1, 4] {
            let r = solve_milp(&p, &threaded(threads));
            assert_eq!(r.status, MilpStatus::Infeasible, "threads {threads}");
        }
    }

    #[test]
    fn mixed_integer_continuous() {
        // min -y - 0.5 x st y <= 2.5 (y int), x <= y, x cont in [0, 10]
        // y = 2, x = 2 -> obj = -3
        let mut p = Problem::new();
        let x = p.add_col("x", 0.0, 10.0, -0.5);
        let y = p.add_int_col("y", 0.0, 10.0, -1.0);
        p.add_row(Sense::Le, 2.5, &[(y, 1.0)]);
        p.add_row(Sense::Le, 0.0, &[(x, 1.0), (y, -1.0)]);
        for threads in [1, 4] {
            let r = solve_milp(&p, &threaded(threads));
            assert_eq!(r.status, MilpStatus::Optimal, "threads {threads}");
            assert_close(r.x[1], 2.0);
            assert_close(r.objective, -3.0);
        }
    }

    /// 3x3 assignment problem cross-checked against brute force.
    #[test]
    fn assignment_3x3_matches_bruteforce() {
        let cost = [[4.0, 2.0, 8.0], [4.0, 3.0, 7.0], [3.0, 1.0, 6.0]];
        let mut p = Problem::new();
        let mut cols = Vec::new();
        for (i, row) in cost.iter().enumerate() {
            for (j, &c) in row.iter().enumerate() {
                cols.push(p.add_bin_col(&format!("x{i}{j}"), c));
            }
        }
        for i in 0..3 {
            let coeffs: Vec<_> = (0..3).map(|j| (cols[i * 3 + j], 1.0)).collect();
            p.add_row(Sense::Eq, 1.0, &coeffs);
        }
        for j in 0..3 {
            let coeffs: Vec<_> = (0..3).map(|i| (cols[i * 3 + j], 1.0)).collect();
            p.add_row(Sense::Eq, 1.0, &coeffs);
        }
        let r = solve_milp(&p, &MilpOptions::default());
        assert_eq!(r.status, MilpStatus::Optimal);
        // brute force over 6 permutations
        let mut best = f64::INFINITY;
        let perms = [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];
        for perm in perms {
            let v: f64 = (0..3).map(|i| cost[i][perm[i]]).sum();
            best = best.min(v);
        }
        assert_close(r.objective, best);
    }

    #[test]
    fn warm_incumbent_accepted_and_never_worse() {
        let mut p = Problem::new();
        let a = p.add_bin_col("a", -5.0);
        let b = p.add_bin_col("b", -4.0);
        p.add_row(Sense::Le, 4.0, &[(a, 2.0), (b, 3.0)]);
        // feasible incumbent: a=1, b=0 (obj -5); optimum is a=0,b=1? obj -4;
        // actually a=1,b=0 (2<=4, -5) vs a=0,b=1 (-4) vs a=1,b=1 (5>4 infeasible)
        let opts = MilpOptions {
            initial_incumbent: Some(vec![1.0, 0.0]),
            ..Default::default()
        };
        let r = solve_milp(&p, &opts);
        assert_eq!(r.status, MilpStatus::Optimal);
        assert_close(r.objective, -5.0);
    }

    #[test]
    fn bogus_incumbent_rejected() {
        let mut p = Problem::new();
        let a = p.add_bin_col("a", -5.0);
        p.add_row(Sense::Le, 0.0, &[(a, 1.0)]);
        for threads in [1, 4] {
            let opts = MilpOptions {
                initial_incumbent: Some(vec![1.0]),
                threads,
                ..Default::default()
            };
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| solve_milp(&p, &opts)));
            assert!(r.is_err(), "threads {threads}: bogus incumbent accepted");
        }
    }

    #[test]
    fn node_budget_returns_incumbent() {
        // A problem needing several nodes; budget 1 returns Feasible or
        // Unknown, never panics.
        let mut p = Problem::new();
        let cols: Vec<_> = (0..6).map(|i| p.add_bin_col(&format!("x{i}"), -1.0)).collect();
        let coeffs: Vec<_> = cols.iter().map(|&c| (c, 1.5)).collect();
        p.add_row(Sense::Le, 4.0, &coeffs);
        for threads in [1, 4] {
            let opts = MilpOptions {
                max_nodes: 1,
                threads,
                ..Default::default()
            };
            let r = solve_milp(&p, &opts);
            assert!(matches!(
                r.status,
                MilpStatus::Feasible | MilpStatus::Unknown | MilpStatus::Optimal
            ));
            // one worker claims budget tickets one at a time; each extra
            // worker can overrun the budget by at most one node
            assert!(r.nodes <= 1 + (threads - 1), "threads {threads}: {} nodes", r.nodes);
            let full = solve_milp(&p, &threaded(threads));
            assert_eq!(full.status, MilpStatus::Optimal);
            assert_close(full.objective, -2.0); // floor(4/1.5) = 2 items
        }
    }

    #[test]
    fn expired_deadline_keeps_warm_incumbent() {
        // With a pre-expired deadline the solver must return immediately,
        // flag deadline_hit, and still hand back the warm incumbent.
        let mut p = Problem::new();
        let cols: Vec<_> = (0..6).map(|i| p.add_bin_col(&format!("x{i}"), -1.0)).collect();
        let coeffs: Vec<_> = cols.iter().map(|&c| (c, 1.5)).collect();
        p.add_row(Sense::Le, 4.0, &coeffs);
        let mut inc = vec![0.0; 6];
        inc[0] = 1.0;
        let expired = || SimplexOptions {
            deadline: crate::deadline::Deadline::after(std::time::Duration::ZERO),
            ..Default::default()
        };
        for threads in [1, 4] {
            let opts = MilpOptions {
                lp: expired(),
                initial_incumbent: Some(inc.clone()),
                threads,
                ..Default::default()
            };
            let r = solve_milp(&p, &opts);
            assert!(r.deadline_hit);
            assert_eq!(r.status, MilpStatus::Feasible);
            assert_eq!(r.x, inc);
            // without an incumbent it reports Unknown, still without panicking
            let opts = MilpOptions {
                lp: expired(),
                threads,
                ..Default::default()
            };
            let r = solve_milp(&p, &opts);
            assert!(r.deadline_hit);
            assert_eq!(r.status, MilpStatus::Unknown);
        }
    }

    /// Random binary problem: random costs make both the LP vertices and
    /// the MILP optimum generically unique, which is the documented
    /// determinism regime.
    #[allow(clippy::type_complexity)]
    fn random_binary_problem(
        rng: &mut StdRng,
        max_n: usize,
    ) -> (Problem, Vec<f64>, Vec<(Vec<f64>, f64)>) {
        let n = rng.gen_range(2..max_n);
        let m = rng.gen_range(1..5usize);
        let mut p = Problem::new();
        let obj: Vec<f64> = (0..n).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let cols: Vec<_> = obj
            .iter()
            .enumerate()
            .map(|(i, &c)| p.add_bin_col(&format!("x{i}"), c))
            .collect();
        let mut rows = Vec::new();
        for _ in 0..m {
            let coeffs: Vec<f64> = (0..n).map(|_| rng.gen_range(-3.0..3.0)).collect();
            let rhs = rng.gen_range(-2.0..4.0);
            let cc: Vec<_> = cols.iter().zip(&coeffs).map(|(&c, &a)| (c, a)).collect();
            p.add_row(Sense::Le, rhs, &cc);
            rows.push((coeffs, rhs));
        }
        (p, obj, rows)
    }

    fn brute_force(obj: &[f64], rows: &[(Vec<f64>, f64)]) -> f64 {
        let n = obj.len();
        let mut best = f64::INFINITY;
        for mask in 0..(1u32 << n) {
            let x: Vec<f64> = (0..n).map(|i| ((mask >> i) & 1) as f64).collect();
            let feas = rows
                .iter()
                .all(|(c, rhs)| c.iter().zip(&x).map(|(a, v)| a * v).sum::<f64>() <= rhs + 1e-9);
            if feas {
                best = best.min(obj.iter().zip(&x).map(|(c, v)| c * v).sum());
            }
        }
        best
    }

    #[test]
    fn random_binary_problems_match_bruteforce() {
        let mut rng = StdRng::seed_from_u64(99);
        for trial in 0..25 {
            let (p, obj, rows) = random_binary_problem(&mut rng, 7);
            let best = brute_force(&obj, &rows);
            let r = solve_milp(&p, &MilpOptions::default());
            if best.is_finite() {
                assert_eq!(r.status, MilpStatus::Optimal, "trial {trial}");
                assert!(
                    (r.objective - best).abs() < 1e-5,
                    "trial {trial}: milp {} vs brute {best}",
                    r.objective
                );
            } else {
                assert_eq!(r.status, MilpStatus::Infeasible, "trial {trial}");
            }
        }
    }

    /// The determinism property test named in CI: over random binary
    /// problems, 2, 4 and 8 work-stealing workers return the exact
    /// objective bits and `x` vector of the single inline worker, and all
    /// match brute force.
    #[test]
    fn parallel_bnb_bit_identical_across_thread_counts() {
        let mut rng = StdRng::seed_from_u64(777);
        for trial in 0..25 {
            let (p, obj, rows) = random_binary_problem(&mut rng, 8);
            let one = solve_milp(&p, &threaded(1));
            let brute = brute_force(&obj, &rows);
            for threads in [2usize, 4, 8] {
                let par = solve_milp(&p, &threaded(threads));
                assert_eq!(par.status, one.status, "trial {trial} threads {threads}");
                if one.status == MilpStatus::Optimal {
                    assert_eq!(
                        par.objective.to_bits(),
                        one.objective.to_bits(),
                        "trial {trial} threads {threads}: {} vs {}",
                        par.objective,
                        one.objective
                    );
                    assert_eq!(par.x, one.x, "trial {trial} threads {threads}");
                    assert!(
                        (par.objective - brute).abs() < 1e-5,
                        "trial {trial}: {threads} workers {} vs brute {brute}",
                        par.objective
                    );
                }
            }
        }
    }

    /// Minimum total cost over all permutations of `0..n` (n ≤ 4: at most
    /// 24 permutations).
    fn min_permutation_cost(cost: &[Vec<f64>]) -> f64 {
        fn go(cost: &[Vec<f64>], row: usize, used: &mut Vec<bool>) -> f64 {
            if row == cost.len() {
                return 0.0;
            }
            let mut best = f64::INFINITY;
            for j in 0..cost.len() {
                if !used[j] {
                    used[j] = true;
                    best = best.min(cost[row][j] + go(cost, row + 1, used));
                    used[j] = false;
                }
            }
            best
        }
        go(cost, 0, &mut vec![false; cost.len()])
    }

    /// Assignment problems stress equality rows (phase-1-heavy warm
    /// starts); one worker and four agree bit for bit, and both reach the
    /// brute-force minimum permutation cost.
    #[test]
    fn random_assignment_problems_match_bruteforce() {
        let mut rng = StdRng::seed_from_u64(2024);
        for trial in 0..10 {
            let n = rng.gen_range(2..5usize);
            let cost: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..n).map(|_| rng.gen_range(0.0..9.0)).collect())
                .collect();
            let mut p = Problem::new();
            let mut cols = Vec::new();
            for (i, row) in cost.iter().enumerate() {
                for (j, &c) in row.iter().enumerate() {
                    cols.push(p.add_bin_col(&format!("x{i}{j}"), c));
                }
            }
            for i in 0..n {
                let cc: Vec<_> = (0..n).map(|j| (cols[i * n + j], 1.0)).collect();
                p.add_row(Sense::Eq, 1.0, &cc);
            }
            for j in 0..n {
                let cc: Vec<_> = (0..n).map(|i| (cols[i * n + j], 1.0)).collect();
                p.add_row(Sense::Eq, 1.0, &cc);
            }
            let one = solve_milp(&p, &threaded(1));
            let par = solve_milp(&p, &threaded(4));
            assert_eq!(one.status, MilpStatus::Optimal, "trial {trial}");
            assert_eq!(par.status, MilpStatus::Optimal, "trial {trial}");
            assert_eq!(par.objective.to_bits(), one.objective.to_bits(), "trial {trial}");
            assert_eq!(par.x, one.x, "trial {trial}");
            let brute = min_permutation_cost(&cost);
            assert!(
                (one.objective - brute).abs() < 1e-6,
                "trial {trial}: milp {} vs brute {brute}",
                one.objective
            );
        }
    }
}
