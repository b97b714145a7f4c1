//! Differential tests for the prefix-sharing lower-run exploration
//! (`ccal_core::prefix`): running any bounded checker with the
//! schedule-prefix trie on must be *observationally invisible* — the same
//! verdict, the same case accounting (checked/skipped/reduced), the same
//! first-failure case index, and bit-identical captured logs as the
//! memo-free engine, across serial and parallel workers and with the
//! partial-order reduction on or off. Mirrors `tests/por_differential.rs`
//! along the sharing axis, across all five bounded checkers. Sharing
//! stores finished outcomes and query-point snapshots in one trie
//! (`ccal_core::prefix::SnapshotTrie`), so forked-resume suffix execution
//! is held to the same invisibility contract.

use std::collections::BTreeMap;
use std::sync::Arc;

use ccal::core::calculus::{LayerError, Obligation};
use ccal::core::sim::{SimEvidence, SimFailure};
use ccal::core::contexts::ContextGen;
use ccal::core::env::EnvContext;
use ccal::core::event::EventKind;
use ccal::core::explore::ExploreOptions;
use ccal::core::id::{Loc, Pid, PidSet, QId};
use ccal::core::layer::{LayerInterface, PrimCtx, PrimRun, PrimSpec, PrimStep};
use ccal::core::machine::MachineError;
use ccal::core::sim::{check_prim_refinement, SimOptions, SimRelation};
use ccal::core::log::Log;
use ccal::core::rely::{Conditions, Invariant, RelyGuarantee};
use ccal::core::strategy::ScratchPlayer;
use ccal::core::val::Val;
use ccal::objects::ticket::TicketEnvPlayer;
use ccal::verifier::{
    check_linearizability_with, check_liveness_with, check_race_freedom_with,
    check_sequence_refinement_with, fifo_history_validator,
};

/// The engine configurations every checker is compared across: the
/// reference is sharing off; each (workers, por) combination with sharing
/// on must be indistinguishable from the matching memo-free run.
const WORKERS: [usize; 2] = [1, 4];
const POR: [bool; 2] = [false, true];

/// One engine configuration; convergence dedup and the tier at their
/// defaults.
fn explore(workers: usize, por: bool, share: bool) -> ExploreOptions {
    ExploreOptions {
        workers,
        por,
        share,
        ..ExploreOptions::default()
    }
}

/// A grid with mixed sharing behavior: the contexts are full-script
/// keyed, the contender forces some lower runs to consume the whole
/// schedule while others finish (and memoize) early, and the scratch
/// threads make the grid POR-reducible.
fn grid(len: usize) -> Vec<EnvContext> {
    let total = 4_usize.pow(len as u32);
    ContextGen::new(vec![Pid(0), Pid(1), Pid(2), Pid(3)])
        .with_player(Pid(1), Arc::new(TicketEnvPlayer::new(Pid(1), Loc(0), 1)))
        .with_player(Pid(2), Arc::new(ScratchPlayer::new(Pid(2), Loc(100))))
        .with_player(Pid(3), Arc::new(ScratchPlayer::new(Pid(3), Loc(101))))
        .with_schedule_len(len)
        .with_max_contexts(total)
        .with_por(true)
        .contexts()
}

/// Asserts that the shared run is indistinguishable from the memo-free
/// reference with the same POR setting: identical verdict (`Obligation`s
/// compare field-by-field, so checked/skipped/reduced counts must all
/// match) and identical first-failure evidence, including captured logs
/// (`Debug` formatting renders every event).
fn assert_invisible(
    label: &str,
    reference: &Result<Obligation, LayerError>,
    shared: &Result<Obligation, LayerError>,
) {
    match (reference, shared) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "{label}: obligation drifted under sharing"),
        (Err(a), Err(b)) => {
            assert_eq!(
                format!("{a:?}"),
                format!("{b:?}"),
                "{label}: failure evidence drifted under sharing"
            );
        }
        (a, b) => panic!("{label}: verdicts diverged: {a:?} (reference) vs {b:?} (shared)"),
    }
}

/// Same contract for the simulation checker, whose evidence type carries
/// the probe suite rather than an `Obligation`: both sides are compared
/// through their `Debug` rendering, which spells out every case count,
/// every probe log, and (on failure) both captured logs event by event.
fn assert_sim_invisible(
    label: &str,
    reference: &Result<SimEvidence, Box<SimFailure>>,
    shared: &Result<SimEvidence, Box<SimFailure>>,
) {
    match (reference, shared) {
        (Ok(a), Ok(b)) => assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "{label}: sim evidence drifted under sharing"
        ),
        (Err(a), Err(b)) => assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "{label}: sim counterexample drifted under sharing"
        ),
        (a, b) => panic!("{label}: sim verdicts diverged: {a:?} (reference) vs {b:?} (shared)"),
    }
}

fn counter_iface(name: &str, broken: bool) -> LayerInterface {
    LayerInterface::builder(name)
        .prim(PrimSpec::atomic("bump", move |ctx, _| {
            let n = ctx.abs.get_or_undef("n").as_int().unwrap_or(0) + 1;
            ctx.abs.set("n", Val::Int(n));
            ctx.emit(EventKind::Prim("bump".into(), vec![]));
            Ok(Val::Int(if broken && n >= 3 { n + 1 } else { n }))
        }))
        .build()
}

#[test]
fn sim_refinement_is_identical_with_and_without_sharing() {
    let contexts = grid(3);
    // 6 argument vectors so the memo's inner (argument) dimension is
    // exercised alongside the context dimension; broken for args ≥ 4 so
    // the index-least failing case is in the middle of the grid.
    let lower = LayerInterface::builder("LD")
        .prim(PrimSpec::atomic("op", |ctx, args| {
            ctx.emit(EventKind::Prim("op".into(), vec![args[0].clone()]));
            Ok(args[0].clone())
        }))
        .build();
    let upper = |broken: bool| {
        LayerInterface::builder("UD")
            .prim(PrimSpec::atomic("op", move |ctx, args| {
                ctx.emit(EventKind::Prim("op".into(), vec![args[0].clone()]));
                let n = args[0].as_int()?;
                Ok(Val::Int(if broken && n >= 4 { n + 1 } else { n }))
            }))
            .build()
    };
    let args: Vec<Vec<Val>> = (0..6).map(|i| vec![Val::Int(i)]).collect();
    for broken in [false, true] {
        let up = upper(broken);
        let run = |share: bool, workers: usize, por: bool| {
            check_prim_refinement(
                &lower,
                "op",
                &up,
                "op",
                &SimRelation::identity(),
                Pid(0),
                &contexts,
                &args,
                &SimOptions {
                    explore: explore(workers, por, share),
                    ..SimOptions::default()
                },
            )
        };
        for por in POR {
            let reference = run(false, 1, por);
            for workers in WORKERS {
                let shared = run(true, workers, por);
                assert_sim_invisible(
                    &format!("sim broken={broken} workers={workers} por={por}"),
                    &reference,
                    &shared,
                );
            }
            if broken {
                let failure = reference.as_ref().expect_err("broken for args >= 4");
                assert!(
                    format!("{failure}").contains("args #4"),
                    "first failure must be the index-least case, got {failure}"
                );
            }
        }
    }
}

/// A lower interface whose `gate` setup primitive queries the environment
/// until a non-scheduling event exists — so setup consumes a
/// schedule-dependent number of slots — under a rely condition violated
/// exactly when `Pid(2)` is the *first* environment pid to act (a
/// predicate that is decided within the consumed window and stable
/// afterwards). Contexts scheduling pid 2 first skip *during setup* at
/// prefix depth ≥ 1; the memoized skip must stay keyed at that depth (a
/// depth-0 entry would leak the skip to every schedule in the family —
/// the regression behind
/// `setup_skips_and_failures_stay_keyed_at_their_consumed_depth`).
fn gated_lower_iface() -> LayerInterface {
    struct Gate;
    impl PrimRun for Gate {
        fn resume(&mut self, ctx: &mut PrimCtx<'_>) -> Result<PrimStep, MachineError> {
            if !ctx.log.without_sched().is_empty() {
                Ok(PrimStep::Done(Val::Unit))
            } else {
                Ok(PrimStep::Query)
            }
        }
    }
    LayerInterface::builder("L-gate")
        .prim(PrimSpec::strategy("gate", true, |_, _| Box::new(Gate)))
        .prim(PrimSpec::atomic("op", |ctx, args| {
            ctx.emit(EventKind::Prim("op".into(), vec![args[0].clone()]));
            Ok(args[0].clone())
        }))
        .conditions(RelyGuarantee::new(
            Conditions::none().with(Invariant::new("pid2-not-first", |_, log: &Log| {
                log.iter()
                    .find(|e| !e.is_sched())
                    .is_none_or(|e| e.pid != Pid(2))
            })),
            Conditions::none(),
        ))
        .build()
}

fn gated_upper_iface(broken: bool) -> LayerInterface {
    LayerInterface::builder("U-gate")
        .prim(PrimSpec::atomic("gate", |_, _| Ok(Val::Unit)))
        .prim(PrimSpec::atomic("op", move |ctx, args| {
            ctx.emit(EventKind::Prim("op".into(), vec![args[0].clone()]));
            let n = args[0].as_int()?;
            Ok(Val::Int(if broken && n >= 1 { n + 1 } else { n }))
        }))
        .build()
}

/// Regression: a memoized setup-phase skip (or failure) that consumed
/// `d > 0` schedule slots must be re-cached for other argument indices at
/// depth `d`, not at the empty prefix — a depth-0 entry matches every
/// script of the family, so contexts whose schedules diverge inside the
/// setup window would inherit the wrong outcome and break sharing
/// invisibility.
#[test]
fn setup_skips_and_failures_stay_keyed_at_their_consumed_depth() {
    // Every environment pid acts every turn, so which pid the script
    // schedules first decides whether setup skips (pid 2 first), succeeds
    // (pids 1, 3 first), or keeps consuming slots (pid 0 — the focused
    // pid — until the round-robin tail lets an environment pid act).
    let contexts: Vec<EnvContext> = ContextGen::new(vec![Pid(0), Pid(1), Pid(2), Pid(3)])
        .with_player(Pid(1), Arc::new(ScratchPlayer::new(Pid(1), Loc(100))))
        .with_player(Pid(2), Arc::new(ScratchPlayer::new(Pid(2), Loc(101))))
        .with_player(Pid(3), Arc::new(ScratchPlayer::new(Pid(3), Loc(102))))
        .with_schedule_len(2)
        .with_max_contexts(16)
        .with_por(true)
        .contexts();
    let lower = gated_lower_iface();
    // Two argument vectors: the poisoning path needs an inner index > 0
    // that replays the memoized setup outcome.
    let args: Vec<Vec<Val>> = (0..2).map(|i| vec![Val::Int(i)]).collect();
    for broken in [false, true] {
        let upper = gated_upper_iface(broken);
        let run = |share: bool, workers: usize, por: bool| {
            let opts = SimOptions {
                setup: vec![("gate".to_owned(), Vec::new())],
                explore: explore(workers, por, share),
                ..SimOptions::default()
            };
            check_prim_refinement(
                &lower,
                "op",
                &upper,
                "op",
                &SimRelation::identity(),
                Pid(0),
                &contexts,
                &args,
                &opts,
            )
        };
        for por in POR {
            let reference = run(false, 1, por);
            if !broken {
                // The grid must mix skipping and non-skipping setups, or
                // the scenario exercises nothing.
                let ev = reference.as_ref().expect("honest pair verifies");
                assert!(ev.cases_skipped > 0, "some setups must skip");
                assert!(ev.cases_checked > 0, "some setups must succeed");
            }
            for workers in WORKERS {
                assert_sim_invisible(
                    &format!("gated-setup broken={broken} workers={workers} por={por}"),
                    &reference,
                    &run(true, workers, por),
                );
            }
        }
    }
}

/// A primitive that queries the environment until `k` non-scheduling
/// events exist in the log, then finishes — the liveness workload.
fn wait_for_iface(k: usize) -> LayerInterface {
    struct WaitFor(usize);
    impl PrimRun for WaitFor {
        fn resume(&mut self, ctx: &mut PrimCtx<'_>) -> Result<PrimStep, MachineError> {
            if ctx.log.without_sched().len() >= self.0 {
                ctx.emit(EventKind::Prim("done".into(), vec![]));
                Ok(PrimStep::Done(Val::Unit))
            } else {
                Ok(PrimStep::Query)
            }
        }
    }
    LayerInterface::builder("L-wait")
        .prim(PrimSpec::strategy("wait", true, move |_, _| {
            Box::new(WaitFor(k))
        }))
        .build()
}

#[test]
fn liveness_is_identical_with_and_without_sharing() {
    let contexts = grid(3);
    for bound in [64, 0] {
        let run = |share: bool, workers: usize, por: bool| {
            check_liveness_with(
                &wait_for_iface(1),
                "wait",
                &[],
                Pid(0),
                &contexts,
                bound,
                100_000,
                &explore(workers, por, share),
            )
        };
        for por in POR {
            let reference = run(false, 1, por);
            for workers in WORKERS {
                assert_invisible(
                    &format!("live bound={bound} workers={workers} por={por}"),
                    &reference,
                    &run(true, workers, por),
                );
            }
        }
    }
}

#[test]
fn race_freedom_is_identical_with_and_without_sharing() {
    use ccal::machine::mx86::mx86_hw_interface;
    let contexts = grid(3);
    let focused = PidSet::from_pids([Pid(0)]);
    for broken in [false, true] {
        // Private location when honest; shared with a (racy) second
        // focused pid when broken.
        let pids = if broken {
            PidSet::from_pids([Pid(0), Pid(1)])
        } else {
            focused.clone()
        };
        let contexts = if broken {
            // Focused pids must not also be environment players.
            ContextGen::new(vec![Pid(0), Pid(1), Pid(2), Pid(3)])
                .with_player(Pid(2), Arc::new(ScratchPlayer::new(Pid(2), Loc(100))))
                .with_player(Pid(3), Arc::new(ScratchPlayer::new(Pid(3), Loc(101))))
                .with_schedule_len(3)
                .with_max_contexts(64)
                .with_por(true)
                .contexts()
        } else {
            contexts.clone()
        };
        let mut programs = BTreeMap::new();
        let n = if broken { 2 } else { 1 };
        for c in 0..n {
            let loc = if broken { Loc(0) } else { Loc(50) };
            programs.insert(
                Pid(c),
                vec![
                    ("pull".to_owned(), vec![Val::Loc(loc)]),
                    ("push".to_owned(), vec![Val::Loc(loc)]),
                ],
            );
        }
        let run = |share: bool, workers: usize, por: bool| {
            check_race_freedom_with(
                &mx86_hw_interface(),
                &pids,
                &programs,
                &contexts,
                50_000,
                &explore(workers, por, share),
            )
        };
        for por in POR {
            let reference = run(false, 1, por);
            for workers in WORKERS {
                assert_invisible(
                    &format!("race broken={broken} workers={workers} por={por}"),
                    &reference,
                    &run(true, workers, por),
                );
            }
        }
    }
}

fn atomic_queue_iface(deq_ret: Option<i64>) -> LayerInterface {
    let mut b = LayerInterface::builder("Lq").prim(PrimSpec::atomic("enq", |ctx, args| {
        let q = QId(args[0].as_int()? as u32);
        ctx.emit(EventKind::EnQ(q, args[1].clone()));
        Ok(Val::Unit)
    }));
    b = match deq_ret {
        None => b.prim(PrimSpec::atomic("deq", |ctx, args| {
            let q = QId(args[0].as_int()? as u32);
            ctx.emit(EventKind::DeQ(q));
            Ok(ccal::core::replay::deq_result(ctx.log, ctx.log.len() - 1))
        })),
        Some(k) => b.prim(PrimSpec::atomic("deq", move |ctx, args| {
            let q = QId(args[0].as_int()? as u32);
            ctx.emit(EventKind::DeQ(q));
            Ok(Val::Int(k))
        })),
    };
    b.build()
}

#[test]
fn linearizability_is_identical_with_and_without_sharing() {
    let contexts = grid(3);
    let focused = PidSet::from_pids([Pid(0)]);
    let mut programs = BTreeMap::new();
    programs.insert(
        Pid(0),
        vec![
            ("enq".to_owned(), vec![Val::Int(0), Val::Int(10)]),
            ("deq".to_owned(), vec![Val::Int(0)]),
        ],
    );
    for broken in [false, true] {
        let iface = atomic_queue_iface(if broken { Some(999) } else { None });
        let run = |share: bool, workers: usize, por: bool| {
            check_linearizability_with(
                &iface,
                &focused,
                &programs,
                &SimRelation::identity(),
                &*fifo_history_validator("deq"),
                &contexts,
                100_000,
                &explore(workers, por, share),
            )
        };
        for por in POR {
            let reference = run(false, 1, por);
            for workers in WORKERS {
                assert_invisible(
                    &format!("linz broken={broken} workers={workers} por={por}"),
                    &reference,
                    &run(true, workers, por),
                );
            }
        }
    }
}

#[test]
fn sequence_refinement_is_identical_with_and_without_sharing() {
    let contexts = grid(3);
    // Two scripts so the memo's inner (script) dimension is exercised.
    let scripts = vec![
        vec![("bump".to_owned(), vec![]); 4],
        vec![("bump".to_owned(), vec![]); 2],
    ];
    for broken in [false, true] {
        let impl_iface = counter_iface("ctr-impl", broken);
        let spec_iface = counter_iface("ctr-spec", false);
        let run = |share: bool, workers: usize, por: bool| {
            check_sequence_refinement_with(
                &impl_iface,
                &spec_iface,
                &SimRelation::identity(),
                Pid(0),
                &contexts,
                &scripts,
                100_000,
                &explore(workers, por, share),
            )
        };
        for por in POR {
            let reference = run(false, 1, por);
            for workers in WORKERS {
                assert_invisible(
                    &format!("seqref broken={broken} workers={workers} por={por}"),
                    &reference,
                    &run(true, workers, por),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Property tests: sharing invisibility on randomly assembled grids.
// ---------------------------------------------------------------------------

use proptest::prelude::*;

/// Builds a grid from encoded player choices for the three environment
/// pids, as in `por_differential`: `0` = opaque, `1`/`2` = scratch
/// threads, `3` = a ticket contender. The mix varies how much of the
/// schedule each lower run consumes — and therefore how much the trie
/// can share.
fn random_contexts(len: usize, choices: [u8; 3]) -> Vec<EnvContext> {
    let total = 4_usize.pow(len as u32);
    let mut gen = ContextGen::new(vec![Pid(0), Pid(1), Pid(2), Pid(3)])
        .with_schedule_len(len)
        .with_max_contexts(total)
        .with_por(true);
    for (i, &c) in choices.iter().enumerate() {
        let pid = Pid(1 + i as u32);
        gen = match c {
            0 => gen,
            1 => gen.with_player(pid, Arc::new(ScratchPlayer::new(pid, Loc(100)))),
            2 => gen.with_player(pid, Arc::new(ScratchPlayer::new(pid, Loc(101)))),
            _ => gen.with_player(pid, Arc::new(TicketEnvPlayer::new(pid, Loc(0), 1))),
        };
    }
    gen.contexts()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Sharing invisibility on random stacks: for every random assignment
    /// of environment players and both verdict polarities, all five
    /// bounded checkers return identical results with the trie on and
    /// off, serial and parallel, POR on and off.
    #[test]
    fn sharing_is_invisible_for_all_five_checkers_on_random_grids(
        len in 2_usize..4,
        c1 in 0_u8..4,
        c2 in 0_u8..4,
        c3 in 0_u8..4,
        broken in 0_u8..2,
        knobs in 0_u8..4,
    ) {
        let contexts = random_contexts(len, [c1, c2, c3]);
        let broken = broken == 1;
        let por = knobs & 1 == 1;
        let workers = if knobs & 2 == 2 { 4 } else { 1 };

        // 1. Prim refinement.
        let sim = |share: bool, workers: usize| {
            check_prim_refinement(
                &counter_iface("ctr-impl", broken),
                "bump",
                &counter_iface("ctr-spec", false),
                "bump",
                &SimRelation::identity(),
                Pid(0),
                &contexts,
                &[vec![], vec![], vec![]],
                &SimOptions {
                    explore: explore(workers, por, share),
                    ..SimOptions::default()
                },
            )
        };
        assert_sim_invisible("sim", &sim(false, 1), &sim(true, workers));

        // 2. Liveness.
        let bound = if broken { 0 } else { 64 };
        let live = |share: bool, workers: usize| {
            check_liveness_with(
                &wait_for_iface(1), "wait", &[], Pid(0), &contexts, bound, 100_000,
                &explore(workers, por, share),
            )
        };
        assert_invisible("live", &live(false, 1), &live(true, workers));

        // 3. Race freedom (focused pids must not be environment players).
        if c1 == 0 {
            use ccal::machine::mx86::mx86_hw_interface;
            let focused = PidSet::from_pids([Pid(0), Pid(1)]);
            let loc = |c: u32| if broken { Loc(0) } else { Loc(50 + c) };
            let mut programs = BTreeMap::new();
            for c in 0..2 {
                programs.insert(
                    Pid(c),
                    vec![
                        ("pull".to_owned(), vec![Val::Loc(loc(c))]),
                        ("push".to_owned(), vec![Val::Loc(loc(c))]),
                    ],
                );
            }
            let race = |share: bool, workers: usize| {
                check_race_freedom_with(
                    &mx86_hw_interface(), &focused, &programs, &contexts, 50_000,
                    &explore(workers, por, share),
                )
            };
            assert_invisible("race", &race(false, 1), &race(true, workers));
        }

        // 4. Linearizability of the atomic queue.
        {
            let focused = PidSet::from_pids([Pid(0)]);
            let mut programs = BTreeMap::new();
            programs.insert(
                Pid(0),
                vec![
                    ("enq".to_owned(), vec![Val::Int(0), Val::Int(10)]),
                    ("deq".to_owned(), vec![Val::Int(0)]),
                ],
            );
            let iface = atomic_queue_iface(if broken { Some(999) } else { None });
            let linz = |share: bool, workers: usize| {
                check_linearizability_with(
                    &iface,
                    &focused,
                    &programs,
                    &SimRelation::identity(),
                    &*fifo_history_validator("deq"),
                    &contexts,
                    100_000,
                    &explore(workers, por, share),
                )
            };
            assert_invisible("linz", &linz(false, 1), &linz(true, workers));
        }

        // 5. Sequence refinement of the counter pair.
        {
            let scripts = vec![vec![("bump".to_owned(), vec![]); 4]];
            let seq = |share: bool, workers: usize| {
                check_sequence_refinement_with(
                    &counter_iface("ctr-impl", broken),
                    &counter_iface("ctr-spec", false),
                    &SimRelation::identity(),
                    Pid(0),
                    &contexts,
                    &scripts,
                    100_000,
                    &explore(workers, por, share),
                )
            };
            assert_invisible("seqref", &seq(false, 1), &seq(true, workers));
        }
    }
}
