//! Differential tests for the sleep-set partial-order reduction: running
//! any bounded checker over the POR-reduced grid must produce the same
//! verdict and the same first-failure evidence as the full, unreduced
//! grid — the only permitted difference is the number of cases skipped as
//! trace-equivalent (`cases_reduced`). Mirrors the engine-differential
//! suite in `tests/parallel_differential.rs` along the POR axis, across
//! all five bounded checkers: `check_prim_refinement`, liveness, race
//! freedom, linearizability, and sequence refinement.

use std::collections::BTreeMap;
use std::sync::Arc;

use ccal::core::calculus::{LayerError, Obligation};
use ccal::core::contexts::ContextGen;
use ccal::core::env::EnvContext;
use ccal::core::event::EventKind;
use ccal::core::explore::ExploreOptions;
use ccal::core::id::{Loc, Pid, PidSet, QId};
use ccal::core::layer::{LayerInterface, PrimCtx, PrimRun, PrimSpec, PrimStep};
use ccal::core::machine::MachineError;
use ccal::core::sim::{check_prim_refinement, SimOptions, SimRelation};
use ccal::core::strategy::ScratchPlayer;
use ccal::core::val::Val;
use ccal::objects::ticket::TicketEnvPlayer;
use ccal::verifier::{
    check_linearizability_with, check_liveness_with, check_race_freedom_with,
    check_sequence_refinement_with, fifo_history_validator,
};

/// Default exploration with the reduction on or off.
fn por_opts(por: bool) -> ExploreOptions {
    ExploreOptions {
        por,
        ..ExploreOptions::default()
    }
}

/// A grid on which the reduction actually fires: two scratch threads with
/// disjoint locations (mutually independent) next to a ticket contender
/// and the opaque focused pid. Generated with POR marking forced on, so
/// the same contexts serve both the reduced and the unreduced run — the
/// full-grid run simply ignores the marks.
fn reducible_contexts(len: usize) -> Vec<EnvContext> {
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

/// Asserts the POR accounting identity between an obligation discharged
/// on the reduced grid and the same obligation on the full grid: every
/// case is checked, skipped, or reduced, and the full run reduces
/// nothing.
fn assert_accounting(on: &Obligation, off: &Obligation) {
    assert_eq!(off.cases_reduced, 0, "POR off must reduce nothing");
    assert!(on.cases_reduced > 0, "the grid must actually reduce");
    assert_eq!(
        on.cases_checked + on.cases_skipped + on.cases_reduced,
        off.cases_checked + off.cases_skipped,
        "canonical + skipped + reduced must cover the full grid"
    );
}

#[test]
fn sim_refinement_verdict_and_accounting_match_the_full_grid() {
    let iface = LayerInterface::builder("L-ctr")
        .prim(PrimSpec::atomic("bump", |ctx, _| {
            let n = ctx.abs.get_or_undef("n").as_int().unwrap_or(0) + 1;
            ctx.abs.set("n", Val::Int(n));
            ctx.emit(EventKind::Prim("bump".into(), vec![]));
            Ok(Val::Int(n))
        }))
        .build();
    let contexts = reducible_contexts(3);
    let args = vec![vec![]];
    let run = |por: bool| {
        check_prim_refinement(
            &iface,
            "bump",
            &iface,
            "bump",
            &SimRelation::identity(),
            Pid(0),
            &contexts,
            &args,
            &SimOptions {
                explore: por_opts(por),
                ..SimOptions::default()
            },
        )
        .expect("identity refinement holds")
    };
    let on = run(true);
    let off = run(false);
    assert_eq!(off.cases_reduced, 0);
    assert!(on.cases_reduced > 0, "the grid must actually reduce");
    assert_eq!(
        on.cases_checked + on.cases_skipped + on.cases_reduced,
        off.cases_checked + off.cases_skipped
    );
}

#[test]
fn sim_first_failure_is_identical_with_and_without_por() {
    // Broken for every argument ≥ 5 in every context: all configurations
    // must select the same smallest case index.
    let lower = LayerInterface::builder("LD")
        .prim(PrimSpec::atomic("op", |ctx, args| {
            ctx.emit(EventKind::Prim("op".into(), vec![args[0].clone()]));
            Ok(args[0].clone())
        }))
        .build();
    let upper = LayerInterface::builder("UD")
        .prim(PrimSpec::atomic("op", |ctx, args| {
            ctx.emit(EventKind::Prim("op".into(), vec![args[0].clone()]));
            let n = args[0].as_int()?;
            Ok(Val::Int(if n >= 5 { n + 1 } else { n }))
        }))
        .build();
    let contexts = reducible_contexts(3);
    let args: Vec<Vec<Val>> = (0..8).map(|i| vec![Val::Int(i)]).collect();
    let mut rendered = Vec::new();
    for (por, workers, dedup) in [
        (false, 1, false),
        (true, 1, false),
        (true, 4, false),
        (true, 4, true),
    ] {
        let opts = SimOptions {
            dedup,
            explore: ExploreOptions {
                workers,
                por,
                ..ExploreOptions::default()
            },
            ..SimOptions::default()
        };
        let failure = check_prim_refinement(
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
        .expect_err("the refinement is broken");
        rendered.push((por, workers, dedup, format!("{failure}"), failure.case));
    }
    assert!(
        rendered[0].4.starts_with("context #0, args #5"),
        "full-grid first failure must be the smallest case index, got {}",
        rendered[0].4
    );
    for (por, workers, dedup, text, _) in &rendered {
        assert_eq!(
            text, &rendered[0].3,
            "por={por} workers={workers} dedup={dedup} selected a different failure"
        );
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
fn liveness_verdict_and_failure_match_the_full_grid() {
    let contexts = reducible_contexts(3);
    // Generous bound: the verdict is Ok; accounting must agree.
    let ok = |por: bool| {
        check_liveness_with(
            &wait_for_iface(0),
            "wait",
            &[],
            Pid(0),
            &contexts,
            64,
            100_000,
            &por_opts(por),
        )
        .expect("trivial wait completes")
    };
    assert_accounting(&ok(true), &ok(false));
    // Over-budget: a zero-step bound fails on the first context that
    // consumes any scheduling step. Both runs must report the same
    // context index and the same observed step count.
    let over = |por: bool| {
        check_liveness_with(
            &wait_for_iface(1),
            "wait",
            &[],
            Pid(0),
            &contexts,
            0,
            100_000,
            &por_opts(por),
        )
        .expect_err("a zero-step bound is over-budget somewhere")
    };
    assert_eq!(over(true).to_string(), over(false).to_string());
}

#[test]
fn race_freedom_verdict_and_failure_match_the_full_grid() {
    use ccal::machine::mx86::mx86_hw_interface;
    let contexts = reducible_contexts(3);
    let focused = PidSet::from_pids([Pid(0)]);
    // Race-free: the focused pid owns its location.
    let mut safe = BTreeMap::new();
    safe.insert(
        Pid(0),
        vec![
            ("pull".to_owned(), vec![Val::Loc(Loc(50))]),
            ("push".to_owned(), vec![Val::Loc(Loc(50))]),
        ],
    );
    let ok = |por: bool| {
        check_race_freedom_with(
            &mx86_hw_interface(), &focused, &safe, &contexts, 50_000, &por_opts(por),
        )
            .expect("disjoint locations are race-free")
    };
    assert_accounting(&ok(true), &ok(false));
    // Racy: two focused pids share a location with fully preemptible
    // pull/push, next to the two independent scratch threads — the
    // machine gets stuck on some interleaving, and both runs must report
    // the same first stuck context.
    let total = 4_usize.pow(3);
    let racy_contexts = ContextGen::new(vec![Pid(0), Pid(1), Pid(2), Pid(3)])
        .with_player(Pid(2), Arc::new(ScratchPlayer::new(Pid(2), Loc(100))))
        .with_player(Pid(3), Arc::new(ScratchPlayer::new(Pid(3), Loc(101))))
        .with_schedule_len(3)
        .with_max_contexts(total)
        .with_por(true)
        .contexts();
    let both = PidSet::from_pids([Pid(0), Pid(1)]);
    let mut racy = BTreeMap::new();
    for c in 0..2 {
        racy.insert(
            Pid(c),
            vec![
                ("pull".to_owned(), vec![Val::Loc(Loc(0))]),
                ("push".to_owned(), vec![Val::Loc(Loc(0))]),
            ],
        );
    }
    let fail = |por: bool| {
        check_race_freedom_with(
            &mx86_hw_interface(),
            &both,
            &racy,
            &racy_contexts,
            50_000,
            &por_opts(por),
        )
        .expect_err("fully preemptible sharing races somewhere")
    };
    assert_eq!(fail(true).to_string(), fail(false).to_string());
}

fn atomic_queue_iface(deq_ret: Option<i64>) -> LayerInterface {
    let mut b = LayerInterface::builder("Lq").prim(PrimSpec::atomic("enq", |ctx, args| {
        let q = QId(args[0].as_int()? as u32);
        ctx.emit(EventKind::EnQ(q, args[1].clone()));
        Ok(Val::Unit)
    }));
    b = match deq_ret {
        // Honest: return what the replayed queue holds.
        None => b.prim(PrimSpec::atomic("deq", |ctx, args| {
            let q = QId(args[0].as_int()? as u32);
            ctx.emit(EventKind::DeQ(q));
            Ok(ccal::core::replay::deq_result(ctx.log, ctx.log.len() - 1))
        })),
        // Broken: always return the same constant.
        Some(k) => b.prim(PrimSpec::atomic("deq", move |ctx, args| {
            let q = QId(args[0].as_int()? as u32);
            ctx.emit(EventKind::DeQ(q));
            Ok(Val::Int(k))
        })),
    };
    b.build()
}

#[test]
fn linearizability_verdict_and_failure_match_the_full_grid() {
    let contexts = reducible_contexts(3);
    let focused = PidSet::from_pids([Pid(0)]);
    let mut programs = BTreeMap::new();
    programs.insert(
        Pid(0),
        vec![
            ("enq".to_owned(), vec![Val::Int(0), Val::Int(10)]),
            ("deq".to_owned(), vec![Val::Int(0)]),
        ],
    );
    let run = |iface: &LayerInterface, por: bool| {
        check_linearizability_with(
            iface,
            &focused,
            &programs,
            &SimRelation::identity(),
            &*fifo_history_validator("deq"),
            &contexts,
            100_000,
            &por_opts(por),
        )
    };
    let on = run(&atomic_queue_iface(None), true).expect("atomic queue is linearizable");
    let off = run(&atomic_queue_iface(None), false).expect("atomic queue is linearizable");
    assert_accounting(&on, &off);
    let broken_on = run(&atomic_queue_iface(Some(999)), true).expect_err("999 is never predicted");
    let broken_off = run(&atomic_queue_iface(Some(999)), false).expect_err("999 is never predicted");
    assert_eq!(broken_on.to_string(), broken_off.to_string());
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
fn sequence_refinement_verdict_and_failure_match_the_full_grid() {
    let contexts = reducible_contexts(3);
    let scripts = vec![vec![("bump".to_owned(), vec![]); 4]];
    let run = |impl_iface: &LayerInterface, por: bool| {
        check_sequence_refinement_with(
            impl_iface,
            &counter_iface("ctr-spec", false),
            &SimRelation::identity(),
            Pid(0),
            &contexts,
            &scripts,
            100_000,
            &por_opts(por),
        )
    };
    let on = run(&counter_iface("ctr-impl", false), true).expect("identical counters agree");
    let off = run(&counter_iface("ctr-impl", false), false).expect("identical counters agree");
    assert_accounting(&on, &off);
    let fail_on = run(&counter_iface("ctr-broken", true), true).expect_err("diverges at n = 3");
    let fail_off = run(&counter_iface("ctr-broken", true), false).expect_err("diverges at n = 3");
    assert!(matches!(fail_on, LayerError::Mismatch { .. }));
    assert_eq!(fail_on.to_string(), fail_off.to_string());
}

// ---------------------------------------------------------------------------
// Property tests: POR soundness on randomly assembled grids.
// ---------------------------------------------------------------------------

use proptest::prelude::*;

/// Builds a grid from encoded player choices for the three environment
/// pids: `0` = no player (opaque), `1`/`2` = scratch threads on one of
/// two locations (same code twice ⇒ overlapping footprints ⇒ dependent),
/// `3` = a ticket contender. Random mixes exercise every shape of the
/// independence relation, from fully dependent to fully reduced.
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

/// The differential invariant for Ok verdicts: same rule and description
/// (including any embedded worst-case metrics), full-grid runs reduce
/// nothing, and the reduced run accounts for every full-grid case.
fn assert_same_ok(on: &Obligation, off: &Obligation) {
    assert_eq!(on.rule, off.rule);
    assert_eq!(on.description, off.description);
    assert_eq!(off.cases_reduced, 0, "POR off must reduce nothing");
    assert_eq!(
        on.cases_checked + on.cases_skipped + on.cases_reduced,
        off.cases_checked + off.cases_skipped
    );
}

/// The differential invariant for arbitrary verdicts: both sides agree on
/// Ok/Err, Ok sides satisfy the accounting identity, Err sides render the
/// same first-failure evidence.
fn assert_same_verdict(on: &Result<Obligation, LayerError>, off: &Result<Obligation, LayerError>) {
    match (on, off) {
        (Ok(a), Ok(b)) => assert_same_ok(a, b),
        (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
        (a, b) => panic!("verdicts diverged: {a:?} (POR) vs {b:?} (full)"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// POR soundness on random stacks: for every random assignment of
    /// environment players (two object kinds over shared or disjoint
    /// footprints), all five bounded checkers return the same verdict and
    /// evidence on the reduced grid as on the full grid.
    #[test]
    fn por_preserves_all_five_checkers_on_random_grids(
        len in 2_usize..4,
        c1 in 0_u8..4,
        c2 in 0_u8..4,
        c3 in 0_u8..4,
        broken in 0_u8..2,
    ) {
        let contexts = random_contexts(len, [c1, c2, c3]);
        let broken = broken == 1;

        // 1. Prim refinement (`check_prim_refinement`).
        let sim = |por: bool| {
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
                    explore: por_opts(por),
                    ..SimOptions::default()
                },
            )
        };
        match (sim(true), sim(false)) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(b.cases_reduced, 0);
                prop_assert_eq!(
                    a.cases_checked + a.cases_skipped + a.cases_reduced,
                    b.cases_checked + b.cases_skipped
                );
            }
            (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
            (a, b) => prop_assert!(false, "sim verdicts diverged: {:?} vs {:?}", a, b),
        }

        // 2. Liveness: generous bound when honest, zero bound when broken.
        let bound = if broken { 0 } else { 64 };
        let live = |por: bool| {
            check_liveness_with(
                &wait_for_iface(1), "wait", &[], Pid(0), &contexts, bound, 100_000, &por_opts(por),
            )
        };
        assert_same_verdict(&live(true), &live(false));

        // 3. Race freedom: private location when honest, shared when broken.
        {
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
            // Focused pids must not also be environment players.
            if c1 == 0 {
                let race = |por: bool| {
                    check_race_freedom_with(
                        &mx86_hw_interface(), &focused, &programs, &contexts, 50_000,
                        &por_opts(por),
                    )
                };
                assert_same_verdict(&race(true), &race(false));
            }
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
            let linz = |por: bool| {
                check_linearizability_with(
                    &iface,
                    &focused,
                    &programs,
                    &SimRelation::identity(),
                    &*fifo_history_validator("deq"),
                    &contexts,
                    100_000,
                    &por_opts(por),
                )
            };
            assert_same_verdict(&linz(true), &linz(false));
        }

        // 5. Sequence refinement of the counter pair.
        {
            let scripts = vec![vec![("bump".to_owned(), vec![]); 4]];
            let seq = |por: bool| {
                check_sequence_refinement_with(
                    &counter_iface("ctr-impl", broken),
                    &counter_iface("ctr-spec", false),
                    &SimRelation::identity(),
                    Pid(0),
                    &contexts,
                    &scripts,
                    100_000,
                    &por_opts(por),
                )
            };
            assert_same_verdict(&seq(true), &seq(false));
        }
    }
}
