//! Prefix-sharing lower-run exploration.
//!
//! The bounded checkers enumerate a `|D|^len` grid of schedule prefixes
//! ([`crate::contexts::ContextGen`]) and re-run the concrete (lower)
//! machine for every context. But a run under a [`ScriptScheduler`] is a
//! deterministic function of the *consumed* part of its script: every
//! strategy is a pure function of the global log (§2), and the scheduler
//! reads `script[k]` only at the `k`-th scheduling event. Two grid scripts
//! that agree on the first `k` slots therefore produce bit-identical runs
//! whenever the run consumes at most `k` scheduling events — most of the
//! grid is pure recomputation of shared prefixes.
//!
//! One [`SnapshotTrie`] per check exploits this. Every query point is a
//! cut point: the machine state plus a fork of the in-flight run
//! ([`crate::layer::PrimRun::fork_run`]) determine the rest of the
//! execution, and the schedule prefix consumed so far is exactly the sched
//! events in the log. The trie stores such mid-run snapshots keyed by
//! consumed prefix: exploring a new context walks to the *deepest*
//! ancestor snapshot, forks it (cheap, Arc/COW-backed), and executes only
//! the suffix. Many snapshots along a script's path apply at once;
//! resuming from any of them yields the same outcome by determinism, so
//! the choice affects work done, never verdicts.
//!
//! A run's *finished* outcome (log, return values, error — whatever the
//! checker folds over) is the snapshot at its terminal cut, so it is one
//! more trie entry ([`Stored::Outcome`]) under the prefix the run actually
//! consumed. Any later case whose script shares that consumed prefix
//! reuses the outcome without re-running the machine. Because the cached
//! value is the *complete* per-case outcome, evidence (case counts,
//! probes, index-least first failure) stays bit-identical to the unshared
//! exploration, independent of visit order.
//!
//! Soundness of the clamp: when a run consumes *more* scheduling events
//! than the script's length (falling into the round-robin tail), its
//! entry is stored at the full-script depth — sound because the fallback
//! is the same pure log function for every context of the grid (same
//! domain), so two contexts with equal full scripts are equal contexts.
//!
//! Only contexts minted by [`crate::contexts::ContextGen`] carry a
//! [`ScheduleKey`]; hand-built contexts (notably the forensics replay
//! engine's scripted contexts) have none and structurally bypass the
//! store.
//!
//! Sharing is switched per check by
//! [`crate::explore::ExploreOptions::share`].
//!
//! [`ScriptScheduler`]: crate::strategy::ScriptScheduler

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::id::Pid;

/// Hands out a fresh family id for a [`crate::contexts::ContextGen`]
/// instance. Keys from different generators never collide in a
/// [`SnapshotTrie`], so a checker handed a mixed slice of contexts (different
/// players, domains, or fuel) stays correct — sharing simply does not cross
/// the family boundary.
pub fn next_family() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// The identity of one grid context's schedule script, attached to
/// [`crate::env::EnvContext`]s minted by a generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleKey {
    family: u64,
    script: Vec<Pid>,
    domain_len: usize,
}

impl ScheduleKey {
    /// Creates a key for a script of one generator family over a domain of
    /// `domain_len` participants.
    pub fn new(family: u64, script: Vec<Pid>, domain_len: usize) -> Self {
        Self {
            family,
            script,
            domain_len,
        }
    }

    /// The generator family the script belongs to.
    pub fn family(&self) -> u64 {
        self.family
    }

    /// The schedule script (slot 0 first).
    pub fn script(&self) -> &[Pid] {
        &self.script
    }

    /// The size of the scheduler domain the script draws from.
    pub fn domain_len(&self) -> usize {
        self.domain_len
    }
}

/// Default cap on the entries of each bounded exploration cache: the
/// [`SnapshotTrie`], the convergence cache and the simulation checker's
/// upper-run cache ([`crate::explore::ExploreOptions::cache_cap`]). Chosen
/// to hold a full branching-factor × depth grid of cut points and
/// outcomes for the schedule lengths the checkers explore.
pub const DEFAULT_CACHE_CAP: usize = 4096;

/// A mid-run machine snapshot that can be forked into an independent copy
/// per use. The trie stores one *master* per cut point and hands out forks
/// — masters are never resumed themselves, so an entry stays valid for any
/// number of contexts. `fork` may return `None` when some captured
/// component does not support forking; the lookup then falls back to a
/// shallower snapshot (or a fresh run), which is always sound.
pub trait ForkSnapshot: Sized + Send {
    /// Forks an independent copy of the snapshot.
    fn fork(&self) -> Option<Self>;
}

/// One entry of a check's exploration store: a mid-run cut snapshot, or
/// the finished outcome of a run — the snapshot at its terminal cut.
pub enum Stored<S, T> {
    /// A query-point snapshot to fork and resume.
    Cut(S),
    /// A finished run's outcome, reused as is.
    Outcome(T),
}

impl<S: ForkSnapshot, T: Clone + Send> ForkSnapshot for Stored<S, T> {
    fn fork(&self) -> Option<Self> {
        match self {
            Stored::Cut(s) => s.fork().map(Stored::Cut),
            Stored::Outcome(t) => Some(Stored::Outcome(t.clone())),
        }
    }
}

/// The deepest-first eviction policy shared by the bounded stores
/// ([`SnapshotTrie`] and [`crate::explore::BoundedCache`]): the insertion
/// sequence and a count of residents per depth.
#[derive(Default)]
pub(crate) struct Evictor {
    depths: BTreeMap<usize, usize>,
    next_seq: u64,
}

impl Evictor {
    /// Records a new resident at `depth` and returns its sequence number,
    /// newer than every earlier one.
    pub(crate) fn admit(&mut self, depth: usize) -> u64 {
        *self.depths.entry(depth).or_default() += 1;
        self.next_seq += 1;
        self.next_seq
    }

    /// Records that a resident at `depth` was removed.
    pub(crate) fn release(&mut self, depth: usize) {
        if let std::collections::btree_map::Entry::Occupied(mut e) = self.depths.entry(depth) {
            *e.get_mut() -= 1;
            if *e.get() == 0 {
                e.remove();
            }
        }
    }

    /// Picks the victims of one squeeze of a full store. `residents` are
    /// `(depth, sequence number, id)`; the incoming entry would be stored
    /// at `depth` and is newer than every resident. Candidates are ordered
    /// deepest first, newest first among equal depths, and about an
    /// eighth of `cap` (at least one) are taken. The result ends with
    /// `None` when the incoming entry itself is a victim: it must then be
    /// dropped, and no further resident is evicted because the store no
    /// longer overflows. Every returned item counts as one eviction.
    ///
    /// When no resident is deeper than the incoming entry, the incoming
    /// entry is the first candidate, so it is rejected without scanning
    /// `residents` at all.
    pub(crate) fn victims<K>(
        &self,
        residents: impl Iterator<Item = (usize, u64, K)>,
        depth: usize,
        cap: usize,
    ) -> Vec<Option<K>> {
        if self.depths.keys().next_back().is_none_or(|&deepest| depth >= deepest) {
            return vec![None];
        }
        let mut cand: Vec<(usize, u64, Option<K>)> =
            residents.map(|(d, seq, k)| (d, seq, Some(k))).collect();
        cand.push((depth, u64::MAX, None));
        cand.sort_by_key(|c| std::cmp::Reverse((c.0, c.1)));
        let mut victims = Vec::new();
        for (_, _, victim) in cand.into_iter().take((cap / 8).max(1)) {
            let incoming = victim.is_none();
            victims.push(victim);
            if incoming {
                break;
            }
        }
        victims
    }
}

/// A check's exploration store: a schedule-prefix trie holding, per
/// `(family, inner)`, a map from consumed schedule prefix to an entry —
/// the machine state captured just before a query's environment delivery,
/// or (as [`Stored`] in the kernel) a finished run's outcome. See the
/// module docs for the sharing model. `inner` distinguishes sub-cases
/// that share a context (the argument-vector index, the script index) and
/// must fully determine the execution's input (primitive, arguments,
/// phase) so that the entries of one shard are interchangeable.
///
/// Memory is bounded by `cap` with **deepest-first eviction**: when an
/// insert would exceed the cap, the entries at the longest stored
/// prefixes — the most specific cut points, each reusable only by the few
/// contexts sharing that long prefix — are dropped first, *including the
/// incoming entry itself* when it is the deepest. Root and shallow
/// snapshots, which every later context of the family re-derives from
/// scratch after a whole-trie clear, survive squeezes. Ties on depth evict
/// the newest entry first (first insert wins), so a serial run's
/// hit/evict sequence is deterministic; evictions are batched (about an
/// eighth of the cap per scan, at least one) to amortize the victim scan
/// on saturated tries. Entries are a pure work-saving device, so
/// eviction costs re-execution, never correctness.
pub struct SnapshotTrie<S> {
    map: Mutex<SnapshotStore<S>>,
    cap: usize,
    hits: AtomicU64,
    evictions: AtomicU64,
}

/// One resident entry per `(family, inner)` shard, keyed by consumed
/// schedule prefix and tagged with its insertion sequence number.
type SnapshotShards<S> = HashMap<(u64, usize), HashMap<Vec<Pid>, (u64, S)>>;

struct SnapshotStore<S> {
    shards: SnapshotShards<S>,
    len: usize,
    evictor: Evictor,
}

impl<S: ForkSnapshot> SnapshotTrie<S> {
    /// Creates an empty trie holding at most `cap` entries (clamped to at
    /// least 1).
    pub fn new(cap: usize) -> Self {
        Self {
            map: Mutex::new(SnapshotStore {
                shards: HashMap::new(),
                len: 0,
                evictor: Evictor::default(),
            }),
            cap: cap.max(1),
            hits: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Forks the entry at the *deepest* stored prefix of `key`'s script
    /// (deepest saves the most re-execution), reporting the matched depth
    /// and counting a hit. Many stored prefixes can apply at once;
    /// determinism makes the choice observationally irrelevant.
    pub fn lookup_deepest(&self, key: &ScheduleKey, inner: usize) -> Option<(usize, S)> {
        let hit = self.fork_deepest(key, inner);
        if hit.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// [`SnapshotTrie::lookup_deepest`] without counting a hit: the kernel
    /// reads stored outcomes this way, so [`SnapshotTrie::hits`] counts
    /// snapshot lookups only.
    pub fn fork_deepest(&self, key: &ScheduleKey, inner: usize) -> Option<(usize, S)> {
        let store = self.map.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let shard = store.shards.get(&(key.family, inner))?;
        (0..=key.script.len()).rev().find_map(|d| {
            shard
                .get(&key.script[..d])
                .and_then(|(_, s)| s.fork())
                .map(|s| (d, s))
        })
    }

    /// Stores the entry produced by `make` under the prefix of `key`'s
    /// script consumed so far (`consumed` scheduling events, clamped to
    /// the script length — see the module docs). First insert wins: two
    /// workers racing to compute the same prefix computed the same
    /// deterministic value, and `make` is only called when the cut point
    /// is vacant. When the trie is full, the deepest entries are evicted
    /// first; an incoming entry at least as deep as every resident is
    /// rejected instead (`make` is then never called). Either way the
    /// drop is counted in [`SnapshotTrie::evictions`].
    pub fn insert_with(
        &self,
        key: &ScheduleKey,
        inner: usize,
        consumed: usize,
        make: impl FnOnce() -> Option<S>,
    ) {
        let depth = consumed.min(key.script.len());
        let mut store = self.map.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if store
            .shards
            .get(&(key.family, inner))
            .is_some_and(|shard| shard.contains_key(&key.script[..depth]))
        {
            return;
        }
        if store.len >= self.cap {
            let residents = store.shards.iter().flat_map(|(sk, shard)| {
                shard
                    .iter()
                    .map(move |(prefix, (seq, _))| (prefix.len(), *seq, (*sk, prefix.clone())))
            });
            for victim in store.evictor.victims(residents, depth, self.cap) {
                self.evictions.fetch_add(1, Ordering::Relaxed);
                let Some((sk, prefix)) = victim else { return };
                let emptied = store.shards.get_mut(&sk).is_some_and(|shard| {
                    let removed = shard.remove(&prefix).is_some();
                    debug_assert!(removed, "victim scan saw a live entry");
                    shard.is_empty()
                });
                store.len -= 1;
                store.evictor.release(prefix.len());
                if emptied {
                    store.shards.remove(&sk);
                }
            }
        }
        if let Some(snap) = make() {
            let seq = store.evictor.admit(depth);
            store
                .shards
                .entry((key.family, inner))
                .or_default()
                .insert(key.script[..depth].to_vec(), (seq, snap));
            store.len += 1;
        }
    }

    /// Number of live entries across all shards.
    pub fn len(&self) -> usize {
        self.map
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len
    }

    /// Number of live entries satisfying `pred`.
    pub fn count(&self, pred: impl Fn(&S) -> bool) -> usize {
        self.map
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .shards
            .values()
            .flat_map(HashMap::values)
            .filter(|(_, s)| pred(s))
            .count()
    }

    /// Whether no entry is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups that forked a stored entry since construction.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Entries dropped (or incoming inserts rejected) by the
    /// deepest-first eviction since construction.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

fn steps_counter() -> &'static AtomicU64 {
    static STEPS: AtomicU64 = AtomicU64::new(0);
    &STEPS
}

fn shared_counter() -> &'static AtomicU64 {
    static SHARED: AtomicU64 = AtomicU64::new(0);
    &SHARED
}

fn deep_counter() -> &'static AtomicU64 {
    static DEEP: AtomicU64 = AtomicU64::new(0);
    &DEEP
}

fn prim_steps_counter() -> &'static AtomicU64 {
    static PRIM: AtomicU64 = AtomicU64::new(0);
    &PRIM
}

fn converged_counter() -> &'static AtomicU64 {
    static CONV: AtomicU64 = AtomicU64::new(0);
    &CONV
}

fn conv_evictions_counter() -> &'static AtomicU64 {
    static EVICT: AtomicU64 = AtomicU64::new(0);
    &EVICT
}

/// Resets the process-wide lower-run work accounting (all counters).
/// Benchmarks bracket a checker run with [`steps_reset`] / [`steps_total`]
/// to measure executed atom-steps; the counters are only meaningful when
/// the bracketed run is not concurrent with other checker runs.
pub fn steps_reset() {
    steps_counter().store(0, Ordering::Relaxed);
    shared_counter().store(0, Ordering::Relaxed);
    deep_counter().store(0, Ordering::Relaxed);
    prim_steps_counter().store(0, Ordering::Relaxed);
    converged_counter().store(0, Ordering::Relaxed);
    conv_evictions_counter().store(0, Ordering::Relaxed);
}

/// Total lower-machine atom-steps executed since the last [`steps_reset`].
pub fn steps_total() -> u64 {
    steps_counter().load(Ordering::Relaxed)
}

/// Number of lower runs answered by a stored outcome (or, in the
/// simulation checker, a sealed setup phase or completed call) since the
/// last [`steps_reset`].
pub fn shared_total() -> u64 {
    shared_counter().load(Ordering::Relaxed)
}

/// Records `n` executed lower-machine atom-steps. Checkers call this once
/// per *executed* (non-cached) lower run with a work proxy — machine fuel
/// consumed plus events appended — so the sharing ratio in the benchmarks
/// counts real machine work, not store hits.
pub fn record_steps(n: u64) {
    steps_counter().fetch_add(n, Ordering::Relaxed);
}

/// Records one lower run answered by a stored outcome instead of
/// executed.
pub fn record_shared() {
    shared_counter().fetch_add(1, Ordering::Relaxed);
}

/// Records one lower run resumed from a [`SnapshotTrie`] snapshot instead
/// of executed from scratch.
pub fn record_deep() {
    deep_counter().fetch_add(1, Ordering::Relaxed);
}

/// Number of lower runs resumed from a snapshot since [`steps_reset`].
pub fn deep_total() -> u64 {
    deep_counter().load(Ordering::Relaxed)
}

/// Records `n` intra-primitive execution steps — interpreter work items
/// popped or VM instructions retired *inside* a ClightX primitive body.
/// Distinct from [`record_steps`]: the machine-level counter charges one
/// unit per query-point resume plus log growth, identical for both
/// execution tiers, whereas this counter measures the per-statement work
/// the bytecode tier actually eliminates. The B6 benchmark gates on the
/// ratio of this counter between tiers.
pub fn record_prim_steps(n: u64) {
    prim_steps_counter().fetch_add(n, Ordering::Relaxed);
}

/// Total intra-primitive execution steps since the last [`steps_reset`].
pub fn prim_steps_total() -> u64 {
    prim_steps_counter().load(Ordering::Relaxed)
}

/// Records one suffix answered by the convergence cache instead of
/// executed — the context completed from a fingerprint-identical state
/// without running a single further atom step.
pub fn record_converged() {
    converged_counter().fetch_add(1, Ordering::Relaxed);
}

/// Number of convergence-cache suffix hits since the last [`steps_reset`].
pub fn converged_total() -> u64 {
    converged_counter().load(Ordering::Relaxed)
}

/// Records `n` convergence-cache evictions. The kernel accumulates its
/// per-run [`crate::explore::BoundedCache`] eviction count here on drop,
/// so benches can report pressure across whole checker invocations.
pub fn record_conv_evictions(n: u64) {
    conv_evictions_counter().fetch_add(n, Ordering::Relaxed);
}

/// Total convergence-cache evictions since the last [`steps_reset`].
pub fn conv_evictions_total() -> u64 {
    conv_evictions_counter().load(Ordering::Relaxed)
}

/// A queue-order permutation for [`crate::par::run_cases_ordered`] that
/// turns flat chunk claiming into subtree claiming: consecutive queue
/// positions map to case indices whose schedule scripts share *long*
/// prefixes (the grid encodes slot 0 as the least significant digit, so
/// ascending indices share suffixes; digit-reversing the context index
/// makes a claimed chunk a subtree of the prefix trie). Workers then mostly
/// extend prefixes they themselves populated, instead of racing all
/// subtrees at once.
///
/// Returns `None` — no reordering — unless every context carries a
/// [`ScheduleKey`] of one family over one domain whose grid is fully
/// enumerated in index order (`contexts.len() == n^len`), which is exactly
/// what [`crate::contexts::ContextGen`] produces for unsampled grids.
/// `nargs` is the number of per-context sub-cases (case index = `ctx_index
/// * nargs + sub_index`); sub-cases stay adjacent.
pub fn subtree_case_order(
    keys: &[Option<&ScheduleKey>],
    nargs: usize,
) -> Option<Vec<usize>> {
    let first = keys.first().copied().flatten()?;
    let n = first.domain_len();
    let len = first.script().len();
    if n < 2 || nargs == 0 {
        return None;
    }
    let total = n.checked_pow(u32::try_from(len).ok()?)?;
    if keys.len() != total {
        return None;
    }
    if !keys.iter().all(|k| {
        k.is_some_and(|k| {
            k.family() == first.family() && k.domain_len() == n && k.script().len() == len
        })
    }) {
        return None;
    }
    let rev = |mut i: usize| -> usize {
        let mut out = 0;
        for _ in 0..len {
            out = out * n + i % n;
            i /= n;
        }
        out
    };
    Some(
        (0..total * nargs)
            .map(|j| rev(j / nargs) * nargs + j % nargs)
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(family: u64, script: &[u32]) -> ScheduleKey {
        ScheduleKey::new(family, script.iter().map(|&p| Pid(p)).collect(), 2)
    }

    #[test]
    fn step_counters_accumulate_and_reset() {
        // Serialized by the global counters themselves being process-wide:
        // this test only checks the arithmetic, tolerating interference by
        // measuring deltas.
        steps_reset();
        record_steps(10);
        record_steps(5);
        record_shared();
        assert!(steps_total() >= 15);
        assert!(shared_total() >= 1);
        steps_reset();
    }

    #[test]
    fn subtree_order_is_a_digit_reversal_permutation() {
        // 2-pid domain, len 2 grid (4 contexts), 3 args per context.
        let keys_owned: Vec<ScheduleKey> = (0..4)
            .map(|i| key(5, &[i % 2, (i / 2) % 2]))
            .collect();
        let keys: Vec<Option<&ScheduleKey>> = keys_owned.iter().map(Some).collect();
        let order = subtree_case_order(&keys, 3).expect("full grid reorders");
        assert_eq!(order.len(), 12);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..12).collect::<Vec<_>>(), "a permutation");
        // Queue position 1 is context rev(0)=0 arg 1; position 3 is context
        // rev(1) = 2 (digit reversal of 01 is 10), arg 0.
        assert_eq!(order[1], 1);
        assert_eq!(order[3], 2 * 3);
    }

    #[derive(Debug, Clone, PartialEq)]
    struct Snap(&'static str, bool);

    impl ForkSnapshot for Snap {
        fn fork(&self) -> Option<Self> {
            self.1.then(|| self.clone())
        }
    }

    #[test]
    fn snapshot_lookup_prefers_the_deepest_prefix() {
        let trie = SnapshotTrie::new(16);
        trie.insert_with(&key(4, &[0, 1, 0]), 0, 1, || Some(Snap("shallow", true)));
        trie.insert_with(&key(4, &[0, 1, 0]), 0, 2, || Some(Snap("deep", true)));
        assert_eq!(
            trie.lookup_deepest(&key(4, &[0, 1, 1]), 0),
            Some((2, Snap("deep", true)))
        );
        // A script diverging after slot 0 only reaches the shallow one.
        assert_eq!(
            trie.lookup_deepest(&key(4, &[0, 0, 0]), 0),
            Some((1, Snap("shallow", true)))
        );
        assert_eq!(trie.lookup_deepest(&key(4, &[1, 0, 0]), 0), None);
    }

    #[test]
    fn snapshot_unforkable_masters_fall_back_shallower() {
        let trie = SnapshotTrie::new(16);
        trie.insert_with(&key(6, &[0, 1]), 0, 1, || Some(Snap("ok", true)));
        trie.insert_with(&key(6, &[0, 1]), 0, 2, || Some(Snap("stuck", false)));
        assert_eq!(
            trie.lookup_deepest(&key(6, &[0, 1]), 0),
            Some((1, Snap("ok", true)))
        );
    }

    #[test]
    fn snapshot_insert_is_first_wins_and_skips_make_when_present() {
        let trie = SnapshotTrie::new(16);
        trie.insert_with(&key(2, &[0, 1]), 0, 1, || Some(Snap("first", true)));
        let mut called = false;
        trie.insert_with(&key(2, &[0, 0]), 0, 1, || {
            called = true;
            Some(Snap("second", true))
        });
        assert!(!called, "make ran for an occupied cut point");
        assert_eq!(
            trie.lookup_deepest(&key(2, &[0, 1]), 0),
            Some((1, Snap("first", true)))
        );
        assert_eq!(trie.len(), 1);
    }

    #[test]
    fn snapshot_cap_evicts_deepest_first() {
        let trie = SnapshotTrie::new(2);
        trie.insert_with(&key(8, &[0, 0]), 0, 1, || Some(Snap("a", true)));
        trie.insert_with(&key(8, &[1, 0]), 0, 2, || Some(Snap("b", true)));
        assert_eq!(trie.len(), 2);
        // Full trie, shallower incoming snapshot: the deepest resident
        // ([1,0] at depth 2) is the victim; the shallow one survives.
        trie.insert_with(&key(8, &[1, 1]), 0, 1, || Some(Snap("c", true)));
        assert_eq!(trie.len(), 2);
        assert_eq!(
            trie.lookup_deepest(&key(8, &[0, 0]), 0),
            Some((1, Snap("a", true)))
        );
        assert_eq!(trie.lookup_deepest(&key(8, &[1, 0]), 0).map(|(d, _)| d), Some(1));
        assert_eq!(
            trie.lookup_deepest(&key(8, &[1, 1]), 0),
            Some((1, Snap("c", true)))
        );
        assert_eq!(trie.evictions(), 1);
    }

    #[test]
    fn snapshot_cap_rejects_an_incoming_snapshot_deeper_than_every_resident() {
        let trie = SnapshotTrie::new(1);
        trie.insert_with(&key(8, &[0, 0]), 0, 1, || Some(Snap("shallow", true)));
        let mut made = false;
        trie.insert_with(&key(8, &[0, 1]), 0, 2, || {
            made = true;
            Some(Snap("deep", true))
        });
        assert!(!made, "rejected incoming snapshots are never made");
        assert_eq!(trie.len(), 1);
        assert_eq!(trie.evictions(), 1);
        // The shallow resident survives the squeeze and keeps answering.
        assert_eq!(
            trie.lookup_deepest(&key(8, &[0, 1]), 0),
            Some((1, Snap("shallow", true)))
        );
        assert_eq!(trie.hits(), 1);
    }

    #[test]
    fn snapshot_cap_rejects_an_incoming_snapshot_as_deep_as_the_deepest_resident() {
        // Ties on depth evict the newest entry first, and the incoming
        // snapshot is the newest: a full trie keeps its resident.
        let trie = SnapshotTrie::new(2);
        trie.insert_with(&key(8, &[0, 0]), 0, 1, || Some(Snap("a", true)));
        trie.insert_with(&key(8, &[1, 0]), 0, 2, || Some(Snap("b", true)));
        let mut made = false;
        trie.insert_with(&key(8, &[1, 1]), 0, 2, || {
            made = true;
            Some(Snap("c", true))
        });
        assert!(!made, "rejected incoming snapshots are never made");
        assert_eq!(trie.evictions(), 1);
        assert_eq!(
            trie.lookup_deepest(&key(8, &[1, 0]), 0),
            Some((2, Snap("b", true)))
        );
        // A shallower one still displaces the deepest resident, after
        // which that depth is free again.
        trie.insert_with(&key(8, &[1, 1]), 0, 1, || Some(Snap("d", true)));
        assert_eq!(trie.evictions(), 2);
        assert_eq!(trie.lookup_deepest(&key(8, &[1, 0]), 0).map(|(d, _)| d), Some(1));
        trie.insert_with(&key(8, &[0, 1]), 0, 2, || Some(Snap("e", true)));
        assert_eq!(trie.evictions(), 3, "a depth-2 entry meets two depth-1 residents");
        assert_eq!(trie.len(), 2);
    }

    /// The clear-on-full regression: under a cap-1 squeeze, deepest-first
    /// eviction keeps the root snapshot every context of the family can
    /// resume from, so the simulated re-execution cost (schedule slots
    /// replayed from the matched depth) is strictly lower than with the
    /// old whole-trie clear, which repeatedly threw the root away.
    #[test]
    fn shallow_snapshots_survive_a_cap_1_squeeze_better_than_full_clears() {
        const LEN: usize = 4;
        // The interleaved workload: for each context, try to resume (cost
        // = slots not covered by the matched snapshot), then offer a
        // deep snapshot at the context's full depth.
        let scripts: Vec<Vec<u32>> = (0..8_usize)
            .map(|i| (0..LEN).map(|s| u32::from((i >> s) & 1 == 1)).collect())
            .collect();
        let evict_cost = {
            let trie = SnapshotTrie::new(1);
            let mut cost = 0_u64;
            trie.insert_with(&key(11, &scripts[0]), 0, 1, || Some(Snap("root", true)));
            for s in &scripts {
                let k = key(11, s);
                let matched = trie.lookup_deepest(&k, 0).map_or(0, |(d, _)| d);
                cost += (LEN - matched) as u64;
                trie.insert_with(&k, 0, LEN, || Some(Snap("deep", true)));
            }
            cost
        };
        // Reference model of the old clear-on-full policy over the same
        // workload: the trie holds exactly the last inserted snapshot.
        let mut clear_cost = 0_u64;
        {
            let mut resident: Option<(Vec<u32>, usize)> = Some((scripts[0].clone(), 1));
            for s in &scripts {
                let matched = resident
                    .as_ref()
                    .filter(|(held, d)| held[..*d] == s[..*d])
                    .map_or(0, |(_, d)| *d);
                clear_cost += (LEN - matched) as u64;
                resident = Some((s.clone(), LEN));
            }
        }
        assert!(
            evict_cost < clear_cost,
            "deepest-first ({evict_cost}) should beat clear-on-full ({clear_cost})"
        );
    }

    #[test]
    fn snapshot_consumed_depth_clamps_to_script_length() {
        let trie = SnapshotTrie::new(16);
        trie.insert_with(&key(3, &[0, 1]), 0, 9, || Some(Snap("tail", true)));
        assert_eq!(
            trie.lookup_deepest(&key(3, &[0, 1]), 0),
            Some((2, Snap("tail", true)))
        );
        assert_eq!(trie.lookup_deepest(&key(3, &[0, 0]), 0), None);
    }

    #[test]
    fn subtree_order_rejects_partial_or_mixed_grids() {
        let keys_owned: Vec<ScheduleKey> =
            (0..3).map(|i| key(5, &[i % 2, (i / 2) % 2])).collect();
        let keys: Vec<Option<&ScheduleKey>> = keys_owned.iter().map(Some).collect();
        assert!(subtree_case_order(&keys, 1).is_none(), "sampled grid");
        let mut mixed: Vec<Option<&ScheduleKey>> = keys_owned.iter().map(Some).collect();
        mixed.push(None);
        assert!(subtree_case_order(&mixed, 1).is_none(), "keyless context");
        assert!(subtree_case_order(&[], 1).is_none(), "empty slice");
    }
}
