//! The unified exploration kernel behind every bounded checker.
//!
//! All five bounded checkers — strategy simulation ([`crate::sim`]),
//! liveness, linearizability, race freedom and sequence refinement
//! (`ccal-verifier`) — explore the same shape: a finite grid of
//! `(environment context × sub-case)` cells, each a deterministic function
//! of the schedule prefix the run consumes, folded in index order down to
//! a verdict and an index-least first failure. Before this module each
//! checker carried its own copy of the machinery around that loop:
//! schedule-prefix outcome sharing, query-point snapshot forking, sleep-set
//! partial-order pruning, work-stealing dispatch, forensics capture, and
//! the slot fold. [`Kernel`] owns all of it once:
//!
//! * **One exploration store** ([`crate::prefix::SnapshotTrie`] of
//!   [`Stored`] entries): forked mid-run machine states at every
//!   environment cut point, resumed for contexts that diverge later
//!   ([`Kernel::resume_deepest`], [`Kernel::snapshot`]), and each finished
//!   run's outcome, so one lower run executes per distinct consumed
//!   schedule prefix ([`Kernel::run_shared`]).
//! * **POR pruning**: contexts marked trace-equivalent by the generator
//!   are skipped and counted without invoking the client
//!   ([`Kernel::explore`]).
//! * **Work-stealing dispatch** ([`crate::par::run_cases_ordered`]) in
//!   subtree claim order ([`crate::prefix::subtree_case_order`]), with the
//!   in-order fold that makes parallel runs bit-identical to serial ones.
//! * **Forensics capture** ([`crate::forensics`]): failing cases are
//!   recorded with their grid index, context index, witness log and reason
//!   whenever a capture scope is active.
//!
//! A checker plugs in by choosing a snapshot type `S` (implementing
//! [`crate::prefix::ForkSnapshot`] — [`RunSnap`] for single-machine
//! checkers, [`crate::conc::GameState`] for game-based ones, or a custom
//! enum like the simulation checker's phase-tagged snapshot), a stored
//! outcome type `T`, and a per-case classification closure returning
//! [`Case`]. New engines (weak-memory exploration, new certified objects,
//! service-mode re-certification) get sharing, pruning, parallelism and
//! capture for free.
//!
//! Every switch of a run — workers, reduction, sharing, the convergence
//! cache and the ClightX execution tier — is a field of the
//! [`ExploreOptions`] value the caller passes in; nothing on the check
//! path reads process state, so concurrent checks with different options
//! cannot observe each other.

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::conc::{ConcurrentMachine, ConcurrentOutcome, GameState, ThreadScript};
use crate::env::EnvContext;
use crate::id::PidSet;
use crate::layer::{LayerInterface, PrimRun};
use crate::log::Log;
use crate::machine::{LayerMachine, MachineError};
use crate::prefix::{ForkSnapshot, ScheduleKey, SnapshotTrie, Stored};

/// The exploration switches of one bounded check, passed explicitly to
/// every checker ([`crate::sim::SimOptions::explore`], the verifiers'
/// `check_*_with`). The defaults are constant — every layer on, the
/// compiled tier, the whole grid — except `workers`, which follows
/// [`crate::par::default_workers`]. No switch changes a verdict or its
/// evidence; the differential suites pin that for each one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreOptions {
    /// Worker threads exploring the case grid (1 = serial).
    pub workers: usize,
    /// Skip contexts marked trace-equivalent by the partial-order
    /// reduction.
    pub por: bool,
    /// Share lower runs across contexts with a common consumed schedule
    /// prefix: store each finished run's outcome and a forked mid-run
    /// snapshot at every environment query point in the check's
    /// exploration store ([`crate::prefix::SnapshotTrie`]), and resume
    /// each new context from its deepest stored ancestor.
    pub share: bool,
    /// Capacity cap on each bounded cache of a check: the exploration
    /// store, the convergence cache and the simulation checker's upper-run
    /// cache (deepest-first eviction, see
    /// [`crate::prefix::SnapshotTrie`] and [`BoundedCache`]).
    pub cache_cap: usize,
    /// Restrict exploration to the half-open flat-index range
    /// `[lo, hi)` of the `ci·ninner+ii` grid. `None` explores the whole
    /// grid. Per-case classification is a deterministic function of the
    /// case index alone, so folding disjoint windows in ascending order
    /// (discarding everything after the first failing window) yields the
    /// same verdict, case accounting and index-least first failure as one
    /// whole-grid exploration — this is what lets the certification
    /// service lease grid chunks to shard processes.
    pub window: Option<(usize, usize)>,
    /// Convergence deduplication: cache suffix outcomes keyed by a
    /// canonical state fingerprint plus the remaining schedule suffix, so
    /// a context converging to an already-explored state completes
    /// without executing another atom step ([`Kernel::converged`]).
    /// Independent of `share` — it collapses *diamonds* (different
    /// prefixes, same state), not shared prefixes.
    pub state_dedup: bool,
    /// Run ClightX primitives on the compiled bytecode tier instead of
    /// the tree-walking interpreter. The machines a check builds carry
    /// the choice into every primitive instantiation
    /// ([`crate::layer::PrimSpec::instantiate`]); the tiers are
    /// bit-identical in events, queries, return values and error strings.
    pub bytecode: bool,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        Self {
            workers: crate::par::default_workers(),
            por: true,
            share: true,
            cache_cap: crate::prefix::DEFAULT_CACHE_CAP,
            window: None,
            state_dedup: true,
            bytecode: true,
        }
    }
}

/// A failing case, carrying both the checker's error and the forensics
/// payload ([`crate::forensics::FailingCase`] minus the indices, which the
/// kernel fills in from the grid position).
#[derive(Debug)]
pub struct Failed<E> {
    /// The checker-specific error returned to the caller.
    pub error: E,
    /// The concrete lower/implementation log at the failure (the witness).
    pub log: Log,
    /// Why the case failed.
    pub reason: String,
    /// Human-readable case detail (context/args/script indices).
    pub detail: String,
}

/// One explored case's classification, folded in index order by
/// [`Kernel::explore`].
#[derive(Debug)]
pub enum Case<D, E> {
    /// The case passed; `D` is whatever the checker folds over (probe
    /// logs, step counts, `()`).
    Checked(D),
    /// The context was invalid (rely violation / unfair schedule).
    Skipped,
    /// The context was pruned by the partial-order reduction.
    Reduced,
    /// The case failed; exploration short-circuits at the index-least
    /// failure.
    Failed(Box<Failed<E>>),
}

impl<D, E> Case<D, E> {
    /// Builds a failing case with its forensics payload.
    pub fn failed(error: E, log: Log, reason: String, detail: String) -> Self {
        Case::Failed(Box::new(Failed {
            error,
            log,
            reason,
            detail,
        }))
    }
}

/// The fold of an explored grid: the case accounting every checker's
/// verdict carries, the per-case data of the checked cases in index
/// order, and the index-least failure (with everything after it
/// discarded, exactly as the per-checker folds did).
#[derive(Debug)]
pub struct Explored<D, E> {
    /// Cases executed and passed.
    pub cases_checked: usize,
    /// Cases skipped (invalid contexts).
    pub cases_skipped: usize,
    /// Cases pruned by the partial-order reduction.
    pub cases_reduced: usize,
    /// The checked cases' data, in case-index order.
    pub checked: Vec<D>,
    /// The index-least failure, if any.
    pub failure: Option<E>,
}

/// A check's exploration store: cut snapshots of type `S` and finished
/// outcomes of type `T` in one bounded [`SnapshotTrie`].
pub type Store<S, T> = SnapshotTrie<Stored<S, T>>;

/// A convergence cache: [`ConvKey`] → `(outcome, donor log length at the
/// cut, donor total consumed)`.
pub type ConvCache<T> = BoundedCache<ConvKey, (T, usize, usize)>;

/// The unified exploration kernel: one exploration [`Store`] plus the
/// grid-dispatch loop, parameterized over a fork-able snapshot type `S`
/// and a stored outcome type `T`. See the module docs for the division
/// of labor between the kernel and its clients.
pub struct Kernel<S, T> {
    store: std::sync::Arc<Store<S, T>>,
    workers: usize,
    por: bool,
    share: bool,
    window: Option<(usize, usize)>,
    bytecode: bool,
    /// The convergence cache: canonical state fingerprint + remaining
    /// schedule suffix → the suffix's outcome. Per-kernel by default;
    /// caller-owned (warm across invocations) via [`Kernel::with_store`],
    /// sound because the key carries the schedule family and the
    /// content-derived inner index — equal keys imply the same
    /// computation. The value carries `(outcome, donor log length at the
    /// cut, donor total consumed)` so a hit can graft the donor's suffix
    /// log onto the borrower's prefix and store the outcome at the donor's
    /// full consumed depth.
    conv: Option<std::sync::Arc<ConvCache<T>>>,
    /// Hit/eviction counts of the (possibly shared) convergence cache at
    /// kernel construction, so per-invocation accounting stays exact when
    /// the cache outlives the kernel.
    conv_hits_base: u64,
    conv_evictions_base: u64,
}

/// Convergence-cache key: `(state fingerprint, schedule family, inner
/// index, remaining schedule suffix)`. Equal keys mean: identical
/// machine/game state (up to replay-commuting log reorderings), same
/// computation, same sub-case, and the exact same schedule still to be
/// delivered — under which execution is deterministic, so the suffix
/// outcome is forced.
pub type ConvKey = (u128, u64, usize, Vec<crate::id::Pid>);

/// The store inner under which the outcome of sub-case `inner` lives: the
/// bitwise complement, so an outcome never shares a key with a cut
/// snapshot of the same sub-case. A run's last cut and its outcome can
/// sit at the same consumed depth, and first insert wins, so a shared key
/// would drop one of them.
fn outcome_inner(inner: usize) -> usize {
    !inner
}

impl<S: ForkSnapshot, T: Clone + Send> Kernel<S, T> {
    /// Creates a kernel for one checker invocation, with a fresh (cold)
    /// store and convergence cache.
    pub fn new(opts: &ExploreOptions) -> Self {
        Self::with_store(
            opts,
            std::sync::Arc::new(SnapshotTrie::new(opts.cache_cap)),
            Some(std::sync::Arc::new(BoundedCache::new(opts.cache_cap))),
        )
    }

    /// Creates a kernel over a *caller-owned* store and convergence cache
    /// (the cache is ignored when `state_dedup` is off), so a long-running
    /// service can keep them warm across checker invocations. Soundness
    /// requires that every invocation sharing the state checks the same
    /// computation over the same schedule-key family: entries are keyed by
    /// `(family, script prefix, inner index)` only, so two different
    /// checks pinned to one family would read each other's outcomes. The
    /// certification service keys families by the unit's content
    /// fingerprint, which makes key collisions imply input equality.
    pub fn with_store(
        opts: &ExploreOptions,
        store: std::sync::Arc<Store<S, T>>,
        conv: Option<std::sync::Arc<ConvCache<T>>>,
    ) -> Self {
        let conv = conv.filter(|_| opts.state_dedup);
        Self {
            store,
            workers: opts.workers,
            por: opts.por,
            share: opts.share,
            window: opts.window,
            bytecode: opts.bytecode,
            conv_hits_base: conv.as_ref().map_or(0, |c| c.hits()),
            conv_evictions_base: conv.as_ref().map_or(0, |c| c.evictions()),
            conv,
        }
    }

    /// The context's schedule key, gated on sharing: `None` when sharing
    /// is off or the context is hand-built (keyless).
    pub fn share_key<'e>(&self, env: &'e EnvContext) -> Option<&'e ScheduleKey> {
        if self.share {
            env.schedule_key()
        } else {
            None
        }
    }

    /// Looks up the stored outcome for any consumed prefix of `key`'s
    /// script, recording a shared (outcome-answered) run on a hit.
    pub fn cached(&self, key: &ScheduleKey, inner: usize) -> Option<T> {
        match self.store.fork_deepest(key, outcome_inner(inner))? {
            (_, Stored::Outcome(hit)) => {
                crate::prefix::record_shared();
                Some(hit)
            }
            (_, Stored::Cut(_)) => None,
        }
    }

    /// Stores an executed run's outcome at its consumed prefix depth.
    pub fn memoize(&self, key: &ScheduleKey, inner: usize, consumed: usize, outcome: T) {
        self.store
            .insert_with(key, outcome_inner(inner), consumed, || Some(Stored::Outcome(outcome)));
    }

    /// The standard lower-run composition every checker uses: answer from
    /// the store when the context's consumed prefix has an outcome
    /// (recording a shared run), otherwise execute via `exec` — which
    /// returns the outcome plus the consumed schedule-prefix length — and
    /// store it. With sharing off (or a keyless context) this is just
    /// `exec`.
    pub fn run_shared(&self, env: &EnvContext, inner: usize, exec: impl FnOnce() -> (T, usize)) -> T {
        match self.share_key(env) {
            Some(k) => {
                if let Some(hit) = self.cached(k, inner) {
                    return hit;
                }
                let (outcome, consumed) = exec();
                self.memoize(k, inner, consumed, outcome.clone());
                outcome
            }
            None => exec().0,
        }
    }

    /// Forks the deepest stored snapshot applying to `key`, recording a
    /// deep (snapshot-resumed) run on a hit. Checkers whose snapshot type
    /// distinguishes phases with different accounting (the simulation
    /// checker) should use [`Kernel::lookup_snapshot`] and record
    /// themselves.
    pub fn resume_deepest(&self, key: &ScheduleKey, inner: usize) -> Option<(usize, S)> {
        let hit = self.lookup_snapshot(key, inner);
        if hit.is_some() {
            crate::prefix::record_deep();
        }
        hit
    }

    /// [`Kernel::resume_deepest`] without the accounting.
    pub fn lookup_snapshot(&self, key: &ScheduleKey, inner: usize) -> Option<(usize, S)> {
        match self.store.lookup_deepest(key, inner)? {
            (depth, Stored::Cut(s)) => Some((depth, s)),
            (_, Stored::Outcome(_)) => None,
        }
    }

    /// Stores a query-point snapshot at the consumed prefix depth (first
    /// insert wins; `make` only runs when the cut point is vacant).
    pub fn snapshot(
        &self,
        key: &ScheduleKey,
        inner: usize,
        consumed: usize,
        make: impl FnOnce() -> Option<S>,
    ) {
        self.store
            .insert_with(key, inner, consumed, || make().map(Stored::Cut));
    }

    /// The context's schedule key, gated on convergence dedup: `None` when
    /// dedup is off or the context is hand-built (keyless). Deliberately
    /// *not* gated on `share` — convergence dedup collapses
    /// diamonds, which exist whether or not prefixes are shared.
    pub fn conv_key<'e>(&self, env: &'e EnvContext) -> Option<&'e ScheduleKey> {
        if self.conv.is_some() {
            env.schedule_key()
        } else {
            None
        }
    }

    /// Probes the convergence cache at a cut point: `fp` is the canonical
    /// fingerprint of the execution state after consuming `consumed`
    /// schedule slots of `key`'s script. On a hit, returns the cached
    /// `(outcome, donor log length at this cut, donor total consumed)` and
    /// records a converged run; on a miss (or when the cut lies past the
    /// scripted part of the schedule — round-robin tails are keyless
    /// suffixes), returns `None`.
    pub fn converged(
        &self,
        key: &ScheduleKey,
        inner: usize,
        consumed: usize,
        fp: crate::fingerprint::ContentHash,
    ) -> Option<(T, usize, usize)> {
        let conv = self.conv.as_ref()?;
        let suffix = key.script().get(consumed..)?;
        let hit = conv.get(&(fp.0, key.family(), inner, suffix.to_vec()))?;
        crate::prefix::record_converged();
        Some(hit)
    }

    /// Records a completed run's outcome for a cut it passed through:
    /// `consumed`/`cut_log_len` locate the cut (where `fp` was computed),
    /// `total_consumed` is the run's final consumed schedule depth. The
    /// entry's eviction depth is the cut's consumed depth, so deepest-first
    /// eviction drops near-complete suffixes (cheap to re-run) before the
    /// widely-reusable shallow ones.
    pub fn converge_record(
        &self,
        key: &ScheduleKey,
        inner: usize,
        consumed: usize,
        fp: crate::fingerprint::ContentHash,
        cut_log_len: usize,
        total_consumed: usize,
        outcome: T,
    ) {
        if let Some(conv) = &self.conv {
            if let Some(suffix) = key.script().get(consumed..) {
                conv.insert(
                    (fp.0, key.family(), inner, suffix.to_vec()),
                    consumed,
                    (outcome, cut_log_len, total_consumed),
                );
            }
        }
    }

    /// Lookups answered by this kernel's convergence cache *during this
    /// invocation* (0 when dedup is off) — a warm cache's prior hits are
    /// excluded via the construction-time baseline.
    pub fn conv_hits(&self) -> u64 {
        self.conv
            .as_ref()
            .map_or(0, |c| c.hits() - self.conv_hits_base)
    }

    /// The exploration loop: dispatches the `(context × sub-case)` grid
    /// onto the work-stealing queue (in subtree claim order when sharing
    /// is on and several workers race), prunes POR-equivalent contexts,
    /// records failing cases into an active forensics capture scope, and
    /// folds the slots in index order — so the verdict, the accounting and
    /// the index-least first failure are bit-identical to a serial,
    /// unshared exploration.
    ///
    /// `run` is called with `(context index, sub-case index)`; the flat
    /// grid index is `ci * ninner + inner`. `checker` names the client in
    /// forensics captures.
    pub fn explore<D, E>(
        &self,
        checker: &'static str,
        contexts: &[EnvContext],
        ninner: usize,
        run: impl Fn(usize, usize) -> Case<D, E> + Sync,
    ) -> Explored<D, E>
    where
        D: Send,
        E: Send,
    {
        let total = contexts.len() * ninner;
        // The window restricts dispatch to `[lo, hi)` of the flat index
        // space; indices keep their whole-grid values so case details,
        // forensics indices and POR classification are identical to a
        // whole-grid run.
        let (lo, hi) = match self.window {
            Some((a, b)) => (a.min(total), b.min(total).max(a.min(total))),
            None => (0, total),
        };
        let span = hi - lo;
        // Decided on the calling thread: only a check started by the
        // thread that opened the capture scope records into it.
        let capture = crate::forensics::capturing();
        let run_case = |widx: usize| -> Case<D, E> {
            let idx = lo + widx;
            let (ci, inner) = (idx / ninner, idx % ninner);
            let env = &contexts[ci];
            if self.por && env.is_por_equivalent() {
                // A lower-indexed trace-equivalent context covers this case.
                return Case::Reduced;
            }
            let outcome = run(ci, inner);
            if capture {
                if let Case::Failed(f) = &outcome {
                    crate::forensics::record(crate::forensics::FailingCase {
                        checker,
                        case_index: idx,
                        ctx_index: ci,
                        detail: f.detail.clone(),
                        log: f.log.clone(),
                        reason: f.reason.clone(),
                    });
                }
            }
            outcome
        };
        // With sharing on and several workers, claim the grid in
        // digit-reversed (subtree) order so each worker's chunk shares
        // long schedule prefixes — the store then hits within a chunk
        // instead of racing across chunks. Subtree order is computed over
        // the whole grid, so it only applies to whole-grid explorations;
        // a window run claims in plain index order.
        let order = if self.share && self.workers > 1 && (lo, hi) == (0, total) {
            let keys: Vec<Option<&ScheduleKey>> =
                contexts.iter().map(EnvContext::schedule_key).collect();
            crate::prefix::subtree_case_order(&keys, ninner)
        } else {
            None
        };
        let slots = crate::par::run_cases_ordered(span, self.workers, order.as_deref(), run_case, |c| {
            matches!(c, Case::Failed(_))
        });
        let mut out = Explored {
            cases_checked: 0,
            cases_skipped: 0,
            cases_reduced: 0,
            checked: Vec::new(),
            failure: None,
        };
        for slot in slots {
            match slot {
                None => break,
                Some(Case::Skipped) => out.cases_skipped += 1,
                Some(Case::Reduced) => out.cases_reduced += 1,
                Some(Case::Checked(d)) => {
                    out.checked.push(d);
                    out.cases_checked += 1;
                }
                Some(Case::Failed(f)) => {
                    out.failure = Some(f.error);
                    break;
                }
            }
        }
        out
    }
}

impl<S, T> Drop for Kernel<S, T> {
    fn drop(&mut self) {
        // Surface the per-invocation convergence-cache evictions into the
        // process-wide counter the benches and differential tests read —
        // deltas against the construction-time baseline, so a warm cache
        // shared across invocations is never double-counted.
        if let Some(conv) = &self.conv {
            let n = conv.evictions() - self.conv_evictions_base;
            if n > 0 {
                crate::prefix::record_conv_evictions(n);
            }
        }
    }
}

/// The stored outcome of a traced concurrent (game) run — what the
/// linearizability and race-freedom checkers fold over.
pub type GameRun = (Result<ConcurrentOutcome, MachineError>, Log);

impl Kernel<GameState, GameRun> {
    /// The shared lower half of the game-based checkers: one traced
    /// concurrent run per distinct consumed schedule prefix, snapshotting
    /// the whole [`GameState`] before every scheduler decision and forking
    /// the deepest prefix-agreeing ancestor for contexts that diverge
    /// later. Work accounting counts only the executed suffix.
    pub fn run_game(
        &self,
        iface: &LayerInterface,
        focused: &PidSet,
        programs: &BTreeMap<crate::id::Pid, ThreadScript>,
        env: &EnvContext,
        fuel: u64,
    ) -> GameRun {
        self.run_shared(env, 0, || {
            let key = self.share_key(env);
            let conv_key = self.conv_key(env);
            let machine = ConcurrentMachine::new(iface.clone(), focused.clone(), env.clone())
                .with_fuel(fuel)
                .with_bytecode(self.bytecode);
            if key.is_none() && conv_key.is_none() {
                let (res, log) = machine.run_traced(programs);
                crate::prefix::record_steps(log.len() as u64);
                let consumed = log.iter().filter(|e| e.is_sched()).count();
                return ((res, log), consumed);
            }
            // Fork the deepest snapshotted ancestor when sharing has one,
            // and replay (counting) only the remaining turns.
            let (start, pre) = match key.and_then(|k| self.resume_deepest(k, 0)) {
                Some((_, st)) => {
                    let pre = st.log_len() as u64;
                    (st, pre)
                }
                None => (machine.init_state(programs), 0),
            };
            // Each cut point stores a snapshot (sharing), then probes
            // the convergence cache; a hit stashes the donor entry and
            // aborts the game at the cut.
            let mut conv_hit: Option<(GameRun, usize, usize)> = None;
            let mut probes: Vec<(crate::fingerprint::ContentHash, usize, usize)> = Vec::new();
            let ctl = machine.run_traced_from_ctl(start, &mut |st| {
                if let Some(k) = key {
                    self.snapshot(k, 0, st.sched_consumed(), || st.fork());
                }
                if let Some(k) = conv_key {
                    let consumed = st.sched_consumed();
                    if let Some(fp) = st.conv_fingerprint() {
                        if let Some(hit) = self.converged(k, 0, consumed, fp) {
                            conv_hit = Some(hit);
                            return true;
                        }
                        probes.push((fp, consumed, st.log_len()));
                    }
                }
                false
            });
            match ctl {
                Ok((res, log)) => {
                    crate::prefix::record_steps(log.len() as u64 - pre);
                    let consumed = log.iter().filter(|e| e.is_sched()).count();
                    let outcome = (res, log);
                    // Seed the convergence cache at every cut this run
                    // passed through without a hit.
                    if let Some(k) = conv_key {
                        for (fp, cut_consumed, cut_len) in probes {
                            self.converge_record(
                                k,
                                0,
                                cut_consumed,
                                fp,
                                cut_len,
                                consumed,
                                outcome.clone(),
                            );
                        }
                    }
                    (outcome, consumed)
                }
                Err(st) => {
                    // Converged: re-graft the donor's suffix log onto this
                    // context's prefix so the evidence is byte-identical to
                    // an executed run, reuse the donor's verdict, and count
                    // only the prefix actually executed here.
                    let ((donor_res, donor_log), donor_cut, donor_consumed) =
                        conv_hit.expect("an aborted game run implies a convergence hit");
                    let cut_len = st.log_len() as u64;
                    let mut log = st.into_log();
                    log.append_all(donor_log.suffix_from(donor_cut).cloned());
                    crate::prefix::record_steps(cut_len - pre);
                    let res = donor_res.map(|out| ConcurrentOutcome {
                        log: log.clone(),
                        abs: out.abs,
                        rets: out.rets,
                        turns: out.turns,
                    });
                    ((res, log), donor_consumed)
                }
            }
        })
    }
}

/// A mid-call machine snapshot: the machine plus a fork of the in-flight
/// primitive run, with checker-specific `extra` state (the liveness
/// checker needs none; the sequence-refinement checker carries the script
/// position and the completed return values). Forking forks the machine
/// (Arc/COW-backed) and the run ([`PrimRun::fork_run`], `None` when the
/// run does not support forking — the lookup then falls back shallower).
pub struct RunSnap<X> {
    /// The machine at the query point.
    pub machine: LayerMachine,
    /// The in-flight primitive run, paused at an environment query.
    pub run: Box<dyn PrimRun>,
    /// Checker-specific resumption state.
    pub extra: X,
}

impl<X: Clone + Send> ForkSnapshot for RunSnap<X> {
    fn fork(&self) -> Option<Self> {
        Some(RunSnap {
            machine: self.machine.fork(),
            run: self.run.fork_run()?,
            extra: self.extra.clone(),
        })
    }
}

/// A bounded cache with **deepest-first eviction**: entries carry a
/// depth (for the simulation checker's upper-run cache, the length of the
/// replayed abstract event sequence), and when an insert would exceed the
/// cap the deepest entries — the most specific, least reusable ones — are
/// dropped first, *including the incoming entry itself* when it is the
/// deepest. Shallow entries, which many later cases re-derive, survive
/// squeezes instead of being thrown away by a whole-table clear. Eviction
/// never changes verdicts: a miss re-runs a deterministic computation.
///
/// Ties on depth evict the newest entry first (first insert wins), so a
/// serial run's hit/evict sequence is deterministic. Evictions are batched
/// (about an eighth of the cap per scan, at least one) to amortize the
/// victim scan on saturated tables.
pub struct BoundedCache<K, V> {
    map: Mutex<CacheStore<K, V>>,
    cap: usize,
    hits: AtomicU64,
    evictions: AtomicU64,
}

struct CacheStore<K, V> {
    entries: HashMap<K, (usize, u64, V)>,
    evictor: crate::prefix::Evictor,
}

impl<K: Eq + Hash + Clone, V: Clone> BoundedCache<K, V> {
    /// Creates an empty cache holding at most `cap` entries (clamped to at
    /// least 1).
    pub fn new(cap: usize) -> Self {
        Self {
            map: Mutex::new(CacheStore {
                entries: HashMap::new(),
                evictor: crate::prefix::Evictor::default(),
            }),
            cap: cap.max(1),
            hits: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Looks up a cached value, counting a hit.
    pub fn get(&self, key: &K) -> Option<V> {
        let store = self.map.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let hit = store.entries.get(key).map(|(_, _, v)| v.clone());
        if hit.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Inserts `value` at `depth` (first insert wins). When the table is
    /// full, the deepest entries are evicted first; an incoming entry at
    /// least as deep as every resident is rejected instead (counted as an
    /// eviction).
    pub fn insert(&self, key: K, depth: usize, value: V) {
        let mut store = self.map.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if store.entries.contains_key(&key) {
            return;
        }
        if store.entries.len() >= self.cap {
            let residents = store.entries.iter().map(|(k, (d, seq, _))| (*d, *seq, k.clone()));
            for victim in store.evictor.victims(residents, depth, self.cap) {
                self.evictions.fetch_add(1, Ordering::Relaxed);
                let Some(k) = victim else { return };
                if let Some((d, _, _)) = store.entries.remove(&k) {
                    store.evictor.release(d);
                }
            }
        }
        let seq = store.evictor.admit(depth);
        store.entries.insert(key, (depth, seq, value));
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .entries
            .len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

}

impl<K, V> BoundedCache<K, V> {
    /// Lookups answered from the cache since construction.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Entries dropped (or incoming inserts rejected) by the deepest-first
    /// eviction since construction.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

impl<K, V> std::fmt::Debug for BoundedCache<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoundedCache")
            .field("cap", &self.cap)
            .field("hits", &self.hits.load(Ordering::Relaxed))
            .field("evictions", &self.evictions.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contexts::ContextGen;
    use crate::id::Pid;

    #[test]
    fn bounded_cache_hits_and_caps() {
        let cache: BoundedCache<&'static str, i32> = BoundedCache::new(2);
        cache.insert("a", 1, 10);
        cache.insert("b", 2, 20);
        assert_eq!(cache.get(&"a"), Some(10));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.get(&"missing"), None);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn bounded_cache_evicts_deepest_first_and_rejects_deeper_incoming() {
        let cache: BoundedCache<&'static str, i32> = BoundedCache::new(1);
        cache.insert("shallow", 1, 10);
        // Deeper incoming entry is rejected; the shallow resident survives
        // the squeeze (a full clear would have dropped it).
        cache.insert("deep", 5, 50);
        assert_eq!(cache.get(&"shallow"), Some(10));
        assert_eq!(cache.get(&"deep"), None);
        assert_eq!(cache.evictions(), 1);
        // A *shallower* incoming entry displaces the deeper resident.
        let cache2: BoundedCache<&'static str, i32> = BoundedCache::new(1);
        cache2.insert("deep", 5, 50);
        cache2.insert("shallow", 1, 10);
        assert_eq!(cache2.get(&"shallow"), Some(10));
        assert_eq!(cache2.get(&"deep"), None);
        assert_eq!(cache2.evictions(), 1);
    }

    #[test]
    fn bounded_cache_first_insert_wins() {
        let cache: BoundedCache<&'static str, i32> = BoundedCache::new(4);
        cache.insert("k", 1, 1);
        cache.insert("k", 1, 2);
        assert_eq!(cache.get(&"k"), Some(1));
    }

    #[test]
    fn bounded_cache_counters_under_concurrent_insert() {
        // 8 threads × 64 ops against an uncapped table: every distinct key
        // lands exactly once (first insert wins), re-inserts are no-ops,
        // and the hit counter equals the number of successful lookups —
        // the counters the convergence benches report must stay exact
        // under contention, not merely monotone.
        let cache: std::sync::Arc<BoundedCache<(usize, usize), usize>> =
            std::sync::Arc::new(BoundedCache::new(10_000));
        let nthreads = 8;
        let per = 64;
        std::thread::scope(|s| {
            for t in 0..nthreads {
                let cache = std::sync::Arc::clone(&cache);
                s.spawn(move || {
                    for i in 0..per {
                        // Half the keys are shared across threads (racing
                        // first-insert), half are thread-private.
                        let key = if i % 2 == 0 { (0, i) } else { (t, i) };
                        cache.insert(key, i, i);
                        assert_eq!(cache.get(&key), Some(i));
                    }
                });
            }
        });
        // Shared keys: one entry per even i. Private keys: one per (t, odd i).
        let expected_len = per / 2 + nthreads * (per / 2);
        assert_eq!(cache.len(), expected_len);
        assert_eq!(cache.hits(), (nthreads * per) as u64);
        assert_eq!(cache.evictions(), 0);
    }

    #[test]
    fn bounded_cache_eviction_batch_is_deepest_first_newest_breaking_ties() {
        // Cap 16 → batch = 16/8 = 2 victims per squeeze. Fill with depths
        // 0..16, then insert at depth 3: the two deepest residents (15, 14)
        // are evicted, the incoming shallow entry lands, and everything
        // shallower survives.
        let cache: BoundedCache<usize, usize> = BoundedCache::new(16);
        for d in 0..16 {
            cache.insert(d, d, d);
        }
        cache.insert(100, 3, 100);
        assert_eq!(cache.evictions(), 2);
        assert_eq!(cache.get(&15), None);
        assert_eq!(cache.get(&14), None);
        assert_eq!(cache.get(&13), Some(13));
        assert_eq!(cache.get(&100), Some(100));
        assert_eq!(cache.len(), 15);
        // Ties on depth evict the newest entry first: two residents at the
        // same depth, the older one survives the squeeze.
        let cache2: BoundedCache<&'static str, i32> = BoundedCache::new(8);
        cache2.insert("old", 7, 1);
        cache2.insert("new", 7, 2);
        for d in 0..6 {
            cache2.insert(["a", "b", "c", "d", "e", "f"][d], d, 0);
        }
        cache2.insert("incoming", 0, 9);
        assert_eq!(cache2.evictions(), 1);
        assert_eq!(cache2.get(&"new"), None);
        assert_eq!(cache2.get(&"old"), Some(1));
        assert_eq!(cache2.get(&"incoming"), Some(9));
    }

    #[test]
    fn bounded_cache_never_serves_across_share_families() {
        // Under semantic sharing keys two computations may interleave
        // their entries in one cache, keyed apart only by the family (and
        // inner) components of the key. A lookup keyed to one family must
        // never be answered by the other's entry, even when every other
        // key component — state fingerprint, inner index, schedule
        // suffix — collides exactly.
        let cache: BoundedCache<ConvKey, &'static str> = BoundedCache::new(64);
        let fam_a = 11_u64;
        let fam_b = 22_u64;
        let suffix = vec![crate::id::Pid(0), crate::id::Pid(1)];
        cache.insert((0xfeed, fam_a, 7, suffix.clone()), 1, "a");
        assert_eq!(cache.get(&(0xfeed, fam_b, 7, suffix.clone())), None);
        assert_eq!(cache.get(&(0xfeed, fam_a, 8, suffix.clone())), None);
        assert_eq!(cache.get(&(0xfeed, fam_a, 7, suffix.clone())), Some("a"));
        cache.insert((0xfeed, fam_b, 7, suffix.clone()), 1, "b");
        assert_eq!(cache.get(&(0xfeed, fam_a, 7, suffix.clone())), Some("a"));
        assert_eq!(cache.get(&(0xfeed, fam_b, 7, suffix)), Some("b"));
    }

    #[test]
    fn bounded_cache_concurrent_two_family_inserts_stay_isolated() {
        // Two "share families" hammer one uncapped cache concurrently with
        // deliberately colliding fingerprint/inner/suffix components: every
        // entry must land under its own family, every lookup must be
        // answered only by its own family's value, and the counters must
        // stay exact under contention.
        let cache: std::sync::Arc<BoundedCache<(u128, u64, usize), u64>> =
            std::sync::Arc::new(BoundedCache::new(10_000));
        let per = 128_usize;
        std::thread::scope(|s| {
            for fam in [1_u64, 2_u64] {
                let cache = std::sync::Arc::clone(&cache);
                s.spawn(move || {
                    for i in 0..per {
                        cache.insert((i as u128, fam, i), i, fam * 1000 + i as u64);
                        assert_eq!(
                            cache.get(&(i as u128, fam, i)),
                            Some(fam * 1000 + i as u64)
                        );
                    }
                });
            }
        });
        assert_eq!(cache.len(), 2 * per);
        assert_eq!(cache.hits(), 2 * per as u64);
        assert_eq!(cache.evictions(), 0);
        for i in 0..per {
            assert_eq!(cache.get(&(i as u128, 1, i)), Some(1000 + i as u64));
            assert_eq!(cache.get(&(i as u128, 2, i)), Some(2000 + i as u64));
        }
    }

    #[test]
    fn bounded_cache_eviction_under_shared_families_is_depth_only() {
        // When a full cache holds entries from two families, the
        // deepest-first eviction picks victims by depth alone — it must
        // not prefer (or spare) either family — and the surviving entries
        // still answer only their own family's lookups.
        let cache: BoundedCache<(u64, usize), &'static str> = BoundedCache::new(8);
        for i in 0..4 {
            cache.insert((1, i), i, "fam1");
            cache.insert((2, i), i + 4, "fam2");
        }
        // Full at 8; an incoming shallow entry squeezes out the deepest
        // batch (8/8 = 1 victim): family 2's depth-7 entry.
        cache.insert((1, 100), 0, "fam1-new");
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.get(&(2, 3)), None);
        assert_eq!(cache.get(&(1, 3)), Some("fam1"));
        assert_eq!(cache.get(&(2, 2)), Some("fam2"));
        assert_eq!(cache.get(&(1, 100)), Some("fam1-new"));
    }

    #[derive(Clone)]
    struct NoSnap;
    impl ForkSnapshot for NoSnap {
        fn fork(&self) -> Option<Self> {
            Some(NoSnap)
        }
    }

    fn opts(workers: usize, share: bool) -> ExploreOptions {
        ExploreOptions {
            workers,
            por: false,
            share,
            ..ExploreOptions::default()
        }
    }

    fn key(family: u64, script: &[u32]) -> ScheduleKey {
        ScheduleKey::new(family, script.iter().map(|&p| Pid(p)).collect(), 2)
    }

    fn grid(len: usize) -> Vec<EnvContext> {
        ContextGen::new(vec![Pid(0), Pid(1)])
            .with_schedule_len(len)
            .contexts()
    }

    #[test]
    fn explore_folds_in_index_order_and_short_circuits() {
        let contexts = grid(2);
        let opts = opts(1, false);
        let kernel: Kernel<NoSnap, ()> = Kernel::new(&opts);
        let explored = kernel.explore("test", &contexts, 1, |ci, _| {
            if ci == 2 {
                Case::failed(format!("boom at {ci}"), Log::new(), "boom".into(), format!("context #{ci}"))
            } else {
                Case::Checked(ci)
            }
        });
        assert_eq!(explored.cases_checked, 2);
        assert_eq!(explored.checked, vec![0, 1]);
        assert_eq!(explored.failure.as_deref(), Some("boom at 2"));
    }

    #[test]
    fn explore_is_bit_identical_across_workers() {
        let contexts = grid(3);
        let run = |ci: usize, _inner: usize| -> Case<usize, String> {
            if ci == 5 {
                Case::failed("fail".to_owned(), Log::new(), "r".into(), "d".into())
            } else {
                Case::Checked(ci)
            }
        };
        let serial = Kernel::<NoSnap, ()>::new(&opts(1, true))
            .explore("test", &contexts, 1, run);
        for workers in [2, 4] {
            let par = Kernel::<NoSnap, ()>::new(&opts(workers, true))
                .explore("test", &contexts, 1, run);
            assert_eq!(serial.cases_checked, par.cases_checked);
            assert_eq!(serial.checked, par.checked);
            assert_eq!(serial.failure, par.failure);
        }
    }

    #[test]
    fn run_shared_memoizes_per_consumed_prefix() {
        let contexts = grid(2);
        let opts = opts(1, true);
        let kernel: Kernel<NoSnap, u32> = Kernel::new(&opts);
        let mut executions = 0_u32;
        for env in &contexts {
            // Every run "consumes" one slot, so contexts sharing slot 0
            // share the outcome: 2 executions over a 4-context grid.
            let _ = kernel.run_shared(env, 0, || {
                executions += 1;
                (executions, 1)
            });
        }
        assert_eq!(executions, 2);
    }

    #[test]
    fn outcomes_hit_any_consumed_prefix_within_their_family_and_inner() {
        let kernel: Kernel<NoSnap, &'static str> = Kernel::new(&opts(1, true));
        // A run under [0,1,0] that consumed 2 slots.
        kernel.memoize(&key(7, &[0, 1, 0]), 0, 2, "shared");
        // Scripts agreeing on the first two slots hit; others miss.
        assert_eq!(kernel.cached(&key(7, &[0, 1, 1]), 0), Some("shared"));
        assert_eq!(kernel.cached(&key(7, &[0, 0, 0]), 0), None);
        assert_eq!(kernel.cached(&key(7, &[1, 1, 0]), 0), None);
        assert_eq!(kernel.cached(&key(8, &[0, 1, 0]), 0), None, "family boundary");
        assert_eq!(kernel.cached(&key(7, &[0, 1, 0]), 1), None, "inner boundary");
        // A run that consumed no slots answers every script of its family.
        kernel.memoize(&key(7, &[1, 1]), 3, 0, "root");
        assert_eq!(kernel.cached(&key(7, &[0, 0]), 3), Some("root"));
    }

    #[derive(Clone, Debug, PartialEq)]
    struct Tag(&'static str);
    impl ForkSnapshot for Tag {
        fn fork(&self) -> Option<Self> {
            Some(self.clone())
        }
    }

    #[test]
    fn an_outcome_and_a_cut_at_the_same_depth_and_inner_both_land() {
        // A run's last cut and its outcome can sit at the same consumed
        // depth under the same sub-case inner; neither may displace the
        // other.
        let kernel: Kernel<Tag, &'static str> = Kernel::new(&opts(1, true));
        let k = key(3, &[0, 1]);
        kernel.snapshot(&k, 0, 2, || Some(Tag("cut")));
        kernel.memoize(&k, 0, 2, "outcome");
        assert_eq!(kernel.lookup_snapshot(&k, 0), Some((2, Tag("cut"))));
        assert_eq!(kernel.cached(&k, 0), Some("outcome"));
        // The other order as well, on a fresh key.
        let k2 = key(4, &[1, 0]);
        kernel.memoize(&k2, 0, 2, "outcome");
        kernel.snapshot(&k2, 0, 2, || Some(Tag("cut")));
        assert_eq!(kernel.cached(&k2, 0), Some("outcome"));
        assert_eq!(kernel.lookup_snapshot(&k2, 0), Some((2, Tag("cut"))));
    }
}
