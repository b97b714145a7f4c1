//! Observable events and the global log.
//!
//! Shared-primitive calls are the only observable actions in the paper's
//! model: "each shared primitive call (together with its arguments) is
//! recorded as an observable event appended to the end of the global log"
//! (§2). Hardware scheduling decisions are also recorded (§3.1). All shared
//! state is a *function of the log*, reconstructed by replay functions
//! ([`crate::replay`]).
//!
//! The event vocabulary below covers every layer built by the toolkit
//! (spinlocks, shared queues, schedulers, queuing locks, condition
//! variables, IPC) plus a generic [`EventKind::Prim`] escape hatch for
//! client-defined primitives such as `f`, `g` and `foo` of Fig. 3.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, OnceLock};

use crate::id::{Loc, Pid, QId};
use crate::val::Val;

/// The action recorded by an event, without its author.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventKind {
    /// A hardware (or software) scheduling transition handing control to
    /// the given participant (§3.1). Recorded by the scheduler strategy
    /// `φ0`, the "judge of the game" (§2).
    HwSched(Pid),
    /// `c.pull(b)`: acquire ownership of shared location `b` (Fig. 6/8).
    Pull(Loc),
    /// `c.push(b, v)`: release ownership of `b`, publishing value `v`
    /// (Fig. 6/8).
    Push(Loc, Val),
    /// `c.FAI_t(b)`: fetch-and-increment the next-ticket field of the
    /// ticket lock at `b` (§2, Fig. 3).
    FaiT(Loc),
    /// `c.get_n(b)`: read the now-serving field of the ticket lock at `b`.
    GetN(Loc),
    /// `c.inc_n(b)`: increment the now-serving field (lock release).
    IncN(Loc),
    /// `c.hold(b)`: the no-op announcing the lock has been taken (§2).
    Hold(Loc),
    /// `c.acq(b)`: the *atomic* lock-acquire event of the lifted interface
    /// `L1` (§2).
    Acq(Loc),
    /// `c.rel(b)`: the atomic lock-release event of `L1`.
    Rel(Loc),
    /// MCS lock: atomically swap the tail pointer of the lock at `b` to the
    /// caller's queue node; the previous tail is recovered by replay.
    McsSwap(Loc),
    /// MCS lock: compare-and-swap the tail from the caller's node to null;
    /// success is recovered by replay.
    McsCasTail(Loc),
    /// MCS lock: link the caller's node as successor of `pred`'s node.
    McsSetNext(Loc, Pid),
    /// MCS lock: read the caller's `locked` flag (spin step).
    McsGetLocked(Loc),
    /// MCS lock: clear the successor's `locked` flag (hand-off).
    McsGrant(Loc, Pid),
    /// Atomic shared-queue enqueue of a value into queue `q` (§4.2).
    EnQ(QId, Val),
    /// Atomic shared-queue dequeue from queue `q` (§4.2); the dequeued
    /// element is recovered by replay.
    DeQ(QId),
    /// `c.yield`: give up the CPU (§5.1).
    Yield,
    /// `c.sleep(i, lk)`: sleep on queue `i` while holding lock `lk`, which
    /// the primitive releases (§5.1).
    Sleep(QId, Loc),
    /// `c.wakeup(i)`: wake the first sleeper of queue `i` (§5.1); the woken
    /// thread (if any) is recovered by replay.
    Wakeup(QId),
    /// Queuing-lock acquire (atomic interface of §5.4).
    AcqQ(Loc),
    /// Queuing-lock release.
    RelQ(Loc),
    /// Condition-variable wait (releases and re-acquires its queuing lock).
    CvWait(QId),
    /// Condition-variable signal.
    CvSignal(QId),
    /// Condition-variable broadcast.
    CvBroadcast(QId),
    /// Synchronous IPC send of a value into channel `q` (§6 lists IPC among
    /// the layers built with the toolkit).
    IpcSend(QId, Val),
    /// Synchronous IPC receive from channel `q`.
    IpcRecv(QId),
    /// A generic named primitive call with its arguments — e.g. `i.f`,
    /// `i.g`, `i.foo` of Fig. 3, or any client-defined atomic object.
    Prim(String, Vec<Val>),
}

/// One shared resource an event may touch. Used by the independence
/// relation of the partial-order reduction ([`crate::por`]): two events
/// can only commute when their footprints are disjoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Footprint {
    /// A shared memory location.
    Loc(Loc),
    /// A shared queue / channel.
    Queue(QId),
    /// Everything — the event's effect cannot be localized (scheduling
    /// transitions, generic [`EventKind::Prim`] calls, `yield`). A global
    /// footprint conflicts with every footprint, including another global
    /// one.
    Global,
}

impl Footprint {
    /// Whether two footprints touch a common resource. [`Footprint::Global`]
    /// overlaps everything.
    pub fn overlaps(&self, other: &Footprint) -> bool {
        matches!(self, Footprint::Global) || matches!(other, Footprint::Global) || self == other
    }
}

/// How the footprint of a generic [`EventKind::Prim`] event with a given
/// name is derived. Declared by object authors via
/// [`declare_prim_footprint`]; undeclared primitives stay
/// [`PrimFootprint::Global`], the conservative default.
///
/// A declaration is a *soundness claim* about the abstraction the event
/// lives under: the replay functions and simulation relations consuming
/// the event must depend only on the declared resources (and on the
/// per-author event order, which the independence relation always
/// preserves). In exchange, the partial-order reduction's alphabet gets
/// finer and more context pairs become trace-equivalent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrimFootprint {
    /// The footprints are exactly the [`Val::Loc`] arguments of the event
    /// — e.g. `ql_take(b)` touches `b`. An event with no location
    /// arguments has an *empty* footprint: it touches no shared resource
    /// and commutes (footprint-wise) with everything, like the pure `f`
    /// and `g` calls of Fig. 3, which the `R₂` abstraction buffers
    /// per-author and erases.
    Args,
    /// A fixed footprint set, independent of the event's arguments.
    Fixed(Vec<Footprint>),
    /// Everything — the effect cannot be localized.
    Global,
}

/// The process-global primitive-footprint registry, plus the bookkeeping
/// needed to detect *time-sensitive* declarations: POR equivalence is
/// stamped on contexts at grid-generation time, so a declaration landing
/// after `name`'s footprint was already consulted cannot retroactively fix
/// the marks on grids generated under the earlier derivation.
#[derive(Default)]
struct PrimFootprintRegistry {
    map: HashMap<String, PrimFootprint>,
    /// Names whose effective derivation has been consulted at least once
    /// (including consultations answered by the undeclared
    /// [`PrimFootprint::Global`] default).
    consulted: std::collections::HashSet<String>,
    /// Names already warned about, so the stderr note fires once per name.
    warned: std::collections::HashSet<String>,
}

fn prim_footprint_registry() -> &'static Mutex<PrimFootprintRegistry> {
    static REG: OnceLock<Mutex<PrimFootprintRegistry>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(PrimFootprintRegistry::default()))
}

/// Declares how [`EventKind::Prim`] events named `name` derive their
/// footprint (process-global, like the relation-composition cache:
/// primitive names identify their objects across the toolkit).
/// Conflicting redeclarations widen to [`PrimFootprint::Global`] — two
/// objects disagreeing about a name means neither claim can be trusted.
/// Redeclaring the same derivation is idempotent.
///
/// Declare *before* generating context grids: POR-equivalence marks are
/// stamped at generation time, so a declaration that changes `name`'s
/// effective derivation after it has already been consulted leaves
/// earlier grids carrying marks computed under the old derivation. Such a
/// declaration still takes effect (later grids see it), but a warning is
/// printed to stderr once per name so the initialization-order hazard is
/// visible instead of silently splitting the process into two regimes.
pub fn declare_prim_footprint(name: &str, fp: PrimFootprint) {
    let mut reg = prim_footprint_registry()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let old = reg
        .map
        .get(name)
        .cloned()
        .unwrap_or(PrimFootprint::Global);
    let new = match reg.map.get(name) {
        Some(existing) if *existing != fp => PrimFootprint::Global,
        _ => fp,
    };
    if new != old && reg.consulted.contains(name) && reg.warned.insert(name.to_owned()) {
        eprintln!(
            "ccal: footprint of primitive `{name}` redeclared after use; context \
             grids generated earlier keep POR-equivalence marks computed under \
             the previous derivation — declare footprints before generating grids"
        );
    }
    reg.map.insert(name.to_owned(), new);
}

/// The declared footprint derivation for primitive `name`
/// ([`PrimFootprint::Global`] when undeclared).
pub fn prim_footprint(name: &str) -> PrimFootprint {
    let mut reg = prim_footprint_registry()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    reg.consulted.insert(name.to_owned());
    reg.map
        .get(name)
        .cloned()
        .unwrap_or(PrimFootprint::Global)
}

impl EventKind {
    /// Whether this kind is a scheduling transition.
    pub fn is_sched(&self) -> bool {
        matches!(self, EventKind::HwSched(_))
    }

    /// The shared resources this event touches. Conservative: anything
    /// whose effect cannot be pinned to a location or queue reports
    /// [`Footprint::Global`]. Generic [`EventKind::Prim`] events consult
    /// the [`declare_prim_footprint`] registry, so object authors can
    /// localize (or empty) the footprint of their named primitives.
    pub fn footprints(&self) -> Vec<Footprint> {
        use EventKind::*;
        match self {
            Pull(b) | Push(b, _) | FaiT(b) | GetN(b) | IncN(b) | Hold(b) | Acq(b) | Rel(b)
            | McsSwap(b) | McsCasTail(b) | McsSetNext(b, _) | McsGetLocked(b) | McsGrant(b, _)
            | AcqQ(b) | RelQ(b) => vec![Footprint::Loc(*b)],
            EnQ(q, _) | DeQ(q) | Wakeup(q) | CvWait(q) | CvSignal(q) | CvBroadcast(q)
            | IpcSend(q, _) | IpcRecv(q) => vec![Footprint::Queue(*q)],
            Sleep(q, lk) => vec![Footprint::Queue(*q), Footprint::Loc(*lk)],
            HwSched(_) | Yield => vec![Footprint::Global],
            Prim(name, args) => match prim_footprint(name) {
                PrimFootprint::Global => vec![Footprint::Global],
                PrimFootprint::Fixed(fs) => fs,
                PrimFootprint::Args => args
                    .iter()
                    .filter_map(|v| match v {
                        Val::Loc(b) => Some(Footprint::Loc(*b)),
                        _ => None,
                    })
                    .collect(),
            },
        }
    }

    /// Whether the event participates in a lock acquisition/hand-off
    /// protocol. The simulation relations of the toolkit preserve "the
    /// order of lock acquiring" (§2), so lock-ordered events are never
    /// treated as commuting with each other, even across different locks.
    pub fn is_lock_ordered(&self) -> bool {
        use EventKind::*;
        matches!(
            self,
            FaiT(_)
                | GetN(_)
                | IncN(_)
                | Hold(_)
                | Acq(_)
                | Rel(_)
                | McsSwap(_)
                | McsCasTail(_)
                | McsSetNext(..)
                | McsGetLocked(_)
                | McsGrant(..)
                | AcqQ(_)
                | RelQ(_)
                | Yield
                | Sleep(..)
                | Wakeup(_)
                | CvWait(_)
                | CvSignal(_)
                | CvBroadcast(_)
        )
    }

    /// Kind-level independence, ignoring authorship: neither kind is a
    /// scheduling transition, the two are not both lock-ordered, and their
    /// footprints are disjoint. [`independent`] adds the distinct-author
    /// requirement.
    pub fn independent_kinds(a: &EventKind, b: &EventKind) -> bool {
        if a.is_sched() || b.is_sched() {
            return false;
        }
        if a.is_lock_ordered() && b.is_lock_ordered() {
            return false;
        }
        let fa = a.footprints();
        b.footprints().iter().all(|fb| fa.iter().all(|x| !x.overlaps(fb)))
    }
}

/// The independence relation over events (the Mazurkiewicz trace alphabet
/// used by [`crate::por`]): two events commute when they have different
/// authors, neither is a scheduling transition, they are not both
/// lock-ordered, and they touch disjoint shared resources. Adjacent
/// independent events can be swapped in a log without changing any replayed
/// shared state or any footprint-local strategy's behavior.
pub fn independent(a: &Event, b: &Event) -> bool {
    a.pid != b.pid && EventKind::independent_kinds(&a.kind, &b.kind)
}

/// Replay-commutation: a *superset* of [`independent`] used only by the
/// convergence fingerprint's Foata normalization ([`crate::log::Log::conv_hash`]),
/// never by POR itself. Two events replay-commute when swapping them in a
/// log changes no replayed shared state, no per-author projection, and no
/// count any shipped strategy or invariant reads. Beyond footprint
/// disjointness this admits pairs acting on *disjoint fields of one
/// object* — the ticket lock's `FAI_t` (next-ticket field) against
/// `get_n`/`inc_n`/`hold` (now-serving field), and cross-author `get_n`
/// reads against each other — which POR's location-level footprints must
/// conservatively order. Like footprint declarations, each listed pair is
/// a soundness claim about the replay functions and strategies consuming
/// the events; `ExploreOptions::state_dedup = false` turns the consumer
/// off.
pub fn replay_commutes(a: &Event, b: &Event) -> bool {
    if a.pid == b.pid {
        return false;
    }
    if EventKind::independent_kinds(&a.kind, &b.kind) {
        return true;
    }
    use EventKind::*;
    match (&a.kind, &b.kind) {
        // Next-ticket field vs now-serving field of the same ticket lock:
        // every replay function counts them separately, and the shipped
        // strategies read "my ticket" (FAI_t order, preserved) and
        // "now serving" (inc_n count, preserved) but never the relative
        // order of the two counters.
        (FaiT(x), GetN(y) | IncN(y) | Hold(y)) | (GetN(x) | IncN(x) | Hold(x), FaiT(y)) => x == y,
        // Two pure reads of the now-serving field: no replay effect, and
        // each author's own read sequence is untouched.
        (GetN(x), GetN(y)) => x == y,
        _ => false,
    }
}

/// An observable event: an [`EventKind`] tagged with the participant that
/// generated it — the paper writes `i.FAI_t`, `c.pull(b)`, etc.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Event {
    /// The participant (CPU or thread) that produced the event. For
    /// scheduling events this is the participant *receiving* control.
    pub pid: Pid,
    /// The recorded action.
    pub kind: EventKind,
}

impl Event {
    /// Creates an event authored by `pid`.
    pub fn new(pid: Pid, kind: EventKind) -> Self {
        Self { pid, kind }
    }

    /// Creates the scheduling event transferring control to `target`.
    pub fn sched(target: Pid) -> Self {
        Self::new(target, EventKind::HwSched(target))
    }

    /// Creates a generic named primitive event.
    pub fn prim(pid: Pid, name: &str, args: Vec<Val>) -> Self {
        Self::new(pid, EventKind::Prim(name.to_owned(), args))
    }

    /// Whether this is a scheduling transition.
    pub fn is_sched(&self) -> bool {
        self.kind.is_sched()
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use EventKind::*;
        match &self.kind {
            HwSched(p) => write!(f, "⟨sched→{p}⟩"),
            Pull(b) => write!(f, "{}.pull({b})", self.pid),
            Push(b, v) => write!(f, "{}.push({b},{v})", self.pid),
            FaiT(b) => write!(f, "{}.FAI_t({b})", self.pid),
            GetN(b) => write!(f, "{}.get_n({b})", self.pid),
            IncN(b) => write!(f, "{}.inc_n({b})", self.pid),
            Hold(b) => write!(f, "{}.hold({b})", self.pid),
            Acq(b) => write!(f, "{}.acq({b})", self.pid),
            Rel(b) => write!(f, "{}.rel({b})", self.pid),
            McsSwap(b) => write!(f, "{}.mcs_swap({b})", self.pid),
            McsCasTail(b) => write!(f, "{}.mcs_cas({b})", self.pid),
            McsSetNext(b, p) => write!(f, "{}.mcs_set_next({b},{p})", self.pid),
            McsGetLocked(b) => write!(f, "{}.mcs_get_locked({b})", self.pid),
            McsGrant(b, p) => write!(f, "{}.mcs_grant({b},{p})", self.pid),
            EnQ(q, v) => write!(f, "{}.enQ({q},{v})", self.pid),
            DeQ(q) => write!(f, "{}.deQ({q})", self.pid),
            Yield => write!(f, "{}.yield", self.pid),
            Sleep(q, lk) => write!(f, "{}.sleep({q},{lk})", self.pid),
            Wakeup(q) => write!(f, "{}.wakeup({q})", self.pid),
            AcqQ(b) => write!(f, "{}.acq_q({b})", self.pid),
            RelQ(b) => write!(f, "{}.rel_q({b})", self.pid),
            CvWait(q) => write!(f, "{}.cv_wait({q})", self.pid),
            CvSignal(q) => write!(f, "{}.cv_signal({q})", self.pid),
            CvBroadcast(q) => write!(f, "{}.cv_broadcast({q})", self.pid),
            IpcSend(q, v) => write!(f, "{}.send({q},{v})", self.pid),
            IpcRecv(q) => write!(f, "{}.recv({q})", self.pid),
            Prim(name, args) => {
                write!(f, "{}.{name}(", self.pid)?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sched_event_targets_pid() {
        let e = Event::sched(Pid(2));
        assert!(e.is_sched());
        assert_eq!(e.pid, Pid(2));
    }

    #[test]
    fn prim_event_displays_like_paper_notation() {
        let e = Event::prim(Pid(1), "foo", vec![]);
        assert_eq!(e.to_string(), "p1.foo()");
        let e = Event::new(Pid(1), EventKind::FaiT(Loc(0)));
        assert_eq!(e.to_string(), "p1.FAI_t(b0)");
    }

    #[test]
    fn independence_requires_disjoint_footprints_and_distinct_pids() {
        let pull0 = Event::new(Pid(1), EventKind::Pull(Loc(0)));
        let pull1 = Event::new(Pid(2), EventKind::Pull(Loc(1)));
        assert!(independent(&pull0, &pull1), "disjoint locations commute");
        let push0 = Event::new(Pid(2), EventKind::Push(Loc(0), Val::Int(1)));
        assert!(!independent(&pull0, &push0), "same location conflicts");
        let same_pid = Event::new(Pid(1), EventKind::Pull(Loc(1)));
        assert!(!independent(&pull0, &same_pid), "same author never commutes");
    }

    #[test]
    fn lock_ordered_events_never_commute_with_each_other() {
        let a = Event::new(Pid(1), EventKind::Acq(Loc(0)));
        let b = Event::new(Pid(2), EventKind::FaiT(Loc(7)));
        // Different locks, but both participate in lock ordering.
        assert!(!independent(&a, &b));
        // A lock event does commute with a non-lock event elsewhere.
        let q = Event::new(Pid(2), EventKind::EnQ(crate::id::QId(3), Val::Int(5)));
        assert!(independent(&a, &q));
    }

    #[test]
    fn sched_prim_and_yield_conflict_with_everything() {
        let sched = Event::sched(Pid(1));
        let prim = Event::prim(Pid(2), "f", vec![]);
        let pull = Event::new(Pid(3), EventKind::Pull(Loc(9)));
        assert!(!independent(&sched, &pull));
        assert!(!independent(&prim, &pull));
        assert!(Footprint::Global.overlaps(&Footprint::Global));
    }

    #[test]
    fn sleep_touches_both_queue_and_lock() {
        let fs = EventKind::Sleep(QId(1), Loc(2)).footprints();
        assert!(fs.contains(&Footprint::Loc(Loc(2))));
        assert!(fs.contains(&Footprint::Queue(QId(1))));
    }

    #[test]
    fn declared_arg_footprints_localize_prims() {
        // Names are unique to this test: the registry is process-global.
        declare_prim_footprint("test_fp_take", PrimFootprint::Args);
        let take0 = Event::prim(Pid(1), "test_fp_take", vec![Val::Loc(Loc(0))]);
        let pull1 = Event::new(Pid(2), EventKind::Pull(Loc(1)));
        let pull0 = Event::new(Pid(2), EventKind::Pull(Loc(0)));
        assert!(independent(&take0, &pull1), "disjoint locations commute");
        assert!(!independent(&take0, &pull0), "same location conflicts");
        assert_eq!(
            take0.kind.footprints(),
            vec![Footprint::Loc(Loc(0))],
            "non-Loc args contribute nothing"
        );
    }

    #[test]
    fn empty_arg_footprints_commute_with_everything_but_sched() {
        declare_prim_footprint("test_fp_pure", PrimFootprint::Args);
        let pure = Event::prim(Pid(1), "test_fp_pure", vec![]);
        assert!(pure.kind.footprints().is_empty());
        let pull = Event::new(Pid(2), EventKind::Pull(Loc(9)));
        let acq = Event::new(Pid(2), EventKind::Acq(Loc(0)));
        assert!(independent(&pure, &pull));
        assert!(independent(&pure, &acq), "pure prims are not lock-ordered");
        assert!(!independent(&pure, &Event::sched(Pid(2))));
    }

    #[test]
    fn conflicting_declarations_widen_to_global() {
        declare_prim_footprint("test_fp_conflict", PrimFootprint::Args);
        declare_prim_footprint(
            "test_fp_conflict",
            PrimFootprint::Fixed(vec![Footprint::Loc(Loc(3))]),
        );
        assert_eq!(prim_footprint("test_fp_conflict"), PrimFootprint::Global);
        // Idempotent redeclaration does not widen.
        declare_prim_footprint("test_fp_stable", PrimFootprint::Args);
        declare_prim_footprint("test_fp_stable", PrimFootprint::Args);
        assert_eq!(prim_footprint("test_fp_stable"), PrimFootprint::Args);
    }

    #[test]
    fn post_use_declarations_still_take_effect() {
        // Consulting first answers the undeclared Global default and marks
        // the name used; a later declaration warns (once, on stderr — the
        // earlier consultation may have stamped POR marks on a grid) but
        // still lands for everything generated afterwards.
        assert_eq!(prim_footprint("test_fp_late"), PrimFootprint::Global);
        declare_prim_footprint("test_fp_late", PrimFootprint::Args);
        assert_eq!(prim_footprint("test_fp_late"), PrimFootprint::Args);
    }

    #[test]
    fn undeclared_prims_stay_global() {
        assert_eq!(
            prim_footprint("test_fp_never_declared"),
            PrimFootprint::Global
        );
        let e = Event::prim(Pid(0), "test_fp_never_declared", vec![]);
        assert_eq!(e.kind.footprints(), vec![Footprint::Global]);
    }

    #[test]
    fn events_are_ordered_and_hashable() {
        use std::collections::BTreeSet;
        let mut s = BTreeSet::new();
        s.insert(Event::sched(Pid(0)));
        s.insert(Event::sched(Pid(0)));
        assert_eq!(s.len(), 1);
    }
}
