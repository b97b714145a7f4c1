//! Differential tests for the unified exploration kernel
//! (`ccal_core::explore::Kernel`): every bounded checker — simulation,
//! liveness, linearizability, race freedom and sequence refinement — now
//! routes its grid walk, outcome and query-point snapshot sharing,
//! POR pruning and forensics capture through the one kernel, and that
//! consolidation must be *observationally invisible*. For real workloads
//! (the ticket-lock stack of §2 and the queuing lock of Fig. 11) the
//! verdict, the case accounting, and the first-failure evidence must be
//! byte-identical across every `workers × por × share` engine
//! configuration, and the process-global step counters must reproduce
//! exactly on repeated serial runs.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use ccal::core::calculus::{LayerError, Obligation};
use ccal::core::contexts::ContextGen;
use ccal::core::env::EnvContext;
use ccal::core::explore::ExploreOptions;
use ccal::core::id::{Loc, Pid, PidSet};
use ccal::core::conc::ThreadScript;
use ccal::core::sim::{
    check_prim_refinement, SimEvidence, SimFailure, SimOptions, SimRelation,
};
use ccal::core::val::Val;
use ccal::machine::mx86::mx86_hw_interface;
use ccal::objects::qlock::{certify_qlock, qlock_overlay, QlockEnvPlayer};
use ccal::objects::ticket::{
    l0_interface, lock_interface, lock_low_interface, m1_module, r1_relation, TicketEnvPlayer,
};
use ccal::verifier::{
    check_linearizability_with, check_liveness_with, check_race_freedom_with,
    check_sequence_refinement_with, lock_history_validator, ticket_bound, OpScript,
};

const B: Loc = Loc(0);
const FUEL: u64 = 200_000;

/// The step counters asserted by [`serial_step_counters_are_reproducible`]
/// are process-global; serialize every test in this binary so concurrent
/// checker runs cannot pollute the bracketed measurement.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The engine configurations every checker is compared across: the
/// reference is serial with sharing off; each (workers, por) combination
/// with sharing on must be indistinguishable from the matching share-free
/// run.
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

/// Asserts that the kernel-shared run is indistinguishable from the
/// share-free reference with the same POR setting: identical verdict
/// (`Obligation`s compare field-by-field, so checked/skipped/reduced
/// counts must all match) and identical first-failure evidence, including
/// captured logs (`Debug` formatting renders every event).
fn assert_invisible(
    label: &str,
    reference: &Result<Obligation, LayerError>,
    shared: &Result<Obligation, LayerError>,
) {
    match (reference, shared) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "{label}: obligation drifted under the kernel"),
        (Err(a), Err(b)) => {
            assert_eq!(
                format!("{a:?}"),
                format!("{b:?}"),
                "{label}: failure evidence drifted under the kernel"
            );
        }
        (a, b) => panic!("{label}: verdicts diverged: {a:?} (reference) vs {b:?} (shared)"),
    }
}

/// Same contract for the simulation checker, whose evidence type carries
/// the probe suite rather than an `Obligation`.
fn assert_sim_invisible(
    label: &str,
    reference: &Result<SimEvidence, Box<SimFailure>>,
    shared: &Result<SimEvidence, Box<SimFailure>>,
) {
    match (reference, shared) {
        (Ok(a), Ok(b)) => assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "{label}: sim evidence drifted under the kernel"
        ),
        (Err(a), Err(b)) => assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "{label}: sim counterexample drifted under the kernel"
        ),
        (a, b) => panic!("{label}: sim verdicts diverged: {a:?} (reference) vs {b:?} (shared)"),
    }
}

/// `M1` (real ClightX `acq`/`rel` bodies) installed over the ticket
/// underlay — the implementation side of the paper's Fig. 5 fun-lift.
fn ticket_iface() -> ccal::core::layer::LayerInterface {
    m1_module()
        .expect("M1 parses")
        .install(&l0_interface())
        .expect("M1 installs over L0")
}

/// Contexts with a real contending lock client, so `acq` consumes a
/// schedule-dependent number of query points (exercising mid-run
/// snapshots, not just stored outcomes).
fn ticket_contexts() -> Vec<EnvContext> {
    ticket_gen().contexts()
}

fn ticket_gen() -> ContextGen {
    ContextGen::new(vec![Pid(0), Pid(1)])
        .with_player(Pid(1), Arc::new(TicketEnvPlayer::new(Pid(1), B, 2)))
        .with_schedule_len(4)
        .with_max_contexts(16)
}

fn game_contexts() -> Vec<EnvContext> {
    game_gen().contexts()
}

fn game_gen() -> ContextGen {
    ContextGen::new(vec![Pid(0), Pid(1)])
        .with_schedule_len(4)
        .with_max_contexts(16)
}

/// The grid of `gen` twice over, both halves pinned to one schedule-key
/// family: every script of the second half repeats one of the first, so
/// it is answered by whatever the first half stored.
fn twin_contexts(gen: fn() -> ContextGen) -> Vec<EnvContext> {
    let family = ccal::core::prefix::next_family();
    let mut contexts = gen().with_family(family).contexts();
    contexts.extend(gen().with_family(family).contexts());
    contexts
}

fn acq_rel_programs(acq: &str, rel: &str) -> BTreeMap<Pid, ThreadScript> {
    let mut programs: BTreeMap<Pid, ThreadScript> = BTreeMap::new();
    for pid in [Pid(0), Pid(1)] {
        programs.insert(
            pid,
            vec![
                (acq.to_owned(), vec![Val::Loc(B)]),
                (rel.to_owned(), vec![Val::Loc(B)]),
            ],
        );
    }
    programs
}

#[test]
fn sim_on_the_ticket_stack_is_kernel_config_invariant() {
    let _g = serial();
    let lower = ticket_iface();
    let contexts = ticket_contexts();
    let args = vec![vec![Val::Loc(B)]];
    // Honest: the fun-lift obligation `L0 ⊢_id M1 : L′1` restricted to
    // `acq`. Broken: comparing `acq` against `rel` diverges on the very
    // first abstracted event, so the counterexample (which must match
    // byte-for-byte across configurations) is exercised too.
    for upper_prim in ["acq", "rel"] {
        let run = |workers: usize, por: bool, share: bool| {
            check_prim_refinement(
                &lower,
                "acq",
                &lock_low_interface(),
                upper_prim,
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
            let reference = run(1, por, false);
            if upper_prim == "rel" {
                assert!(reference.is_err(), "acq vs rel must be a counterexample");
            }
            for workers in WORKERS {
                assert_sim_invisible(
                    &format!("sim ticket upper={upper_prim} workers={workers} por={por}"),
                    &reference,
                    &run(workers, por, true),
                );
            }
        }
    }
}

#[test]
fn liveness_on_ticket_acq_is_kernel_config_invariant() {
    let _g = serial();
    let iface = ticket_iface();
    let contexts = ticket_contexts();
    // The paper's bound passes; bound 1 is unmeetable, so both polarities
    // (obligation and starvation counterexample) are compared.
    for bound in [ticket_bound(4, 8, 2), 1] {
        let run = |workers: usize, por: bool, share: bool| {
            check_liveness_with(
                &iface,
                "acq",
                &[Val::Loc(B)],
                Pid(0),
                &contexts,
                bound,
                FUEL,
                &explore(workers, por, share),
            )
        };
        for por in POR {
            let reference = run(1, por, false);
            assert_eq!(reference.is_ok(), bound > 1, "bound {bound} polarity");
            for workers in WORKERS {
                assert_invisible(
                    &format!("live ticket bound={bound} workers={workers} por={por}"),
                    &reference,
                    &run(workers, por, true),
                );
            }
        }
    }
}

#[test]
fn linearizability_on_ticket_is_kernel_config_invariant() {
    let _g = serial();
    let iface = ticket_iface();
    let focused = PidSet::from_pids([Pid(0), Pid(1)]);
    let programs = acq_rel_programs("acq", "rel");
    let contexts = game_contexts();
    let honest = lock_history_validator();
    let reject: Box<ccal::verifier::linz::HistoryValidator> =
        Box::new(|_, _| Err("forced rejection (negative control)".to_owned()));
    for (label, validator, expect_ok) in [("honest", &honest, true), ("reject", &reject, false)] {
        let run = |workers: usize, por: bool, share: bool| {
            check_linearizability_with(
                &iface,
                &focused,
                &programs,
                &r1_relation(),
                validator,
                &contexts,
                FUEL,
                &explore(workers, por, share),
            )
        };
        for por in POR {
            let reference = run(1, por, false);
            assert_eq!(reference.is_ok(), expect_ok, "{label} polarity");
            for workers in WORKERS {
                assert_invisible(
                    &format!("linz ticket {label} workers={workers} por={por}"),
                    &reference,
                    &run(workers, por, true),
                );
            }
        }
    }
}

#[test]
fn race_freedom_is_kernel_config_invariant() {
    let _g = serial();
    // Honest: the locked ticket client is race-free. Broken: fully
    // preemptible pull/push on the raw hardware machine gets stuck, and
    // the stuck-context evidence must match across configurations.
    let scenarios: [(&str, ccal::core::layer::LayerInterface, BTreeMap<Pid, ThreadScript>, bool);
        2] = [
        ("ticket", ticket_iface(), acq_rel_programs("acq", "rel"), true),
        (
            "mx86",
            mx86_hw_interface(),
            acq_rel_programs("pull", "push"),
            false,
        ),
    ];
    let focused = PidSet::from_pids([Pid(0), Pid(1)]);
    let contexts = game_contexts();
    for (label, iface, programs, expect_ok) in &scenarios {
        let run = |workers: usize, por: bool, share: bool| {
            check_race_freedom_with(
                iface, &focused, programs, &contexts, FUEL, &explore(workers, por, share),
            )
        };
        for por in POR {
            let reference = run(1, por, false);
            assert_eq!(reference.is_ok(), *expect_ok, "{label} polarity");
            for workers in WORKERS {
                assert_invisible(
                    &format!("race {label} workers={workers} por={por}"),
                    &reference,
                    &run(workers, por, true),
                );
            }
        }
    }
}

#[test]
fn sequence_refinement_on_ticket_is_kernel_config_invariant() {
    let _g = serial();
    let impl_iface = ticket_iface();
    let scripts: Vec<OpScript> = vec![vec![
        ("acq".to_owned(), vec![Val::Loc(B)]),
        ("rel".to_owned(), vec![Val::Loc(B)]),
    ]];
    let contexts = ticket_contexts();
    // The `R1` abstraction against the atomic lock spec is the certified
    // direction; the identity relation against the same spec diverges on
    // the low-level events. Either way the verdict — and, on failure, the
    // exact case index and rendered evidence — must be configuration
    // independent.
    for (label, relation) in [("r1", r1_relation()), ("id", SimRelation::identity())] {
        let run = |workers: usize, por: bool, share: bool| {
            check_sequence_refinement_with(
                &impl_iface,
                &lock_interface(),
                &relation,
                Pid(0),
                &contexts,
                &scripts,
                FUEL,
                &explore(workers, por, share),
            )
        };
        for por in POR {
            let reference = run(1, por, false);
            for workers in WORKERS {
                assert_invisible(
                    &format!("seqref ticket {label} workers={workers} por={por}"),
                    &reference,
                    &run(workers, por, true),
                );
            }
        }
    }
}

#[test]
fn qlock_overlay_checkers_are_kernel_config_invariant() {
    let _g = serial();
    // The queuing-lock side of the differential: the atomic overlay's
    // `acq_q`/`rel_q` through linearizability, race freedom, sequence
    // refinement and liveness. (The full ClightX `Mql` stack is covered by
    // `qlock_certificate_is_deterministic_through_the_kernel`.)
    let iface = qlock_overlay();
    let focused = PidSet::from_pids([Pid(0), Pid(1)]);
    let programs = acq_rel_programs("acq_q", "rel_q");
    let contexts = game_contexts();
    let validator = lock_history_validator();
    for por in POR {
        let linz_ref = check_linearizability_with(
            &iface, &focused, &programs, &SimRelation::identity(), &validator, &contexts, FUEL,
            &explore(1, por, false),
        );
        assert!(linz_ref.is_ok(), "atomic qlock histories linearize");
        let race_ref = check_race_freedom_with(
            &iface, &focused, &programs, &contexts, FUEL, &explore(1, por, false),
        );
        assert!(race_ref.is_ok(), "atomic qlock clients are race-free");
        let scripts: Vec<OpScript> = vec![vec![
            ("acq_q".to_owned(), vec![Val::Loc(B)]),
            ("rel_q".to_owned(), vec![Val::Loc(B)]),
        ]];
        let seq_ref = check_sequence_refinement_with(
            &iface, &iface, &SimRelation::identity(), Pid(0), &contexts, &scripts, FUEL,
            &explore(1, por, false),
        );
        let live_ref = check_liveness_with(
            &iface, "acq_q", &[Val::Loc(B)], Pid(0), &contexts, 32, FUEL,
            &explore(1, por, false),
        );
        assert!(live_ref.is_ok(), "uncontended acq_q completes promptly");
        for workers in WORKERS {
            let label = format!("qlock workers={workers} por={por}");
            assert_invisible(
                &format!("linz {label}"),
                &linz_ref,
                &check_linearizability_with(
                    &iface, &focused, &programs, &SimRelation::identity(), &validator,
                    &contexts, FUEL, &explore(workers, por, true),
                ),
            );
            assert_invisible(
                &format!("race {label}"),
                &race_ref,
                &check_race_freedom_with(
                    &iface, &focused, &programs, &contexts, FUEL,
                    &explore(workers, por, true),
                ),
            );
            assert_invisible(
                &format!("seqref {label}"),
                &seq_ref,
                &check_sequence_refinement_with(
                    &iface, &iface, &SimRelation::identity(), Pid(0), &contexts, &scripts,
                    FUEL, &explore(workers, por, true),
                ),
            );
            assert_invisible(
                &format!("live {label}"),
                &live_ref,
                &check_liveness_with(
                    &iface, "acq_q", &[Val::Loc(B)], Pid(0), &contexts, 32, FUEL,
                    &explore(workers, por, true),
                ),
            );
        }
    }
}

#[test]
fn qlock_certificate_is_deterministic_through_the_kernel() {
    let _g = serial();
    // `certify_qlock` drives the real ClightX `Mql` module through
    // `check_fun` (the sim checker, now a kernel client). Two back-to-back
    // runs must render byte-identically.
    let contexts = || {
        ContextGen::new(vec![Pid(0), Pid(1)])
            .with_player(Pid(1), Arc::new(QlockEnvPlayer::new(Pid(1), B, 2)))
            .with_schedule_len(3)
            .contexts()
    };
    let run = || {
        certify_qlock(Pid(0), B, contexts())
            .map(|layer| format!("{layer:?}"))
            .map_err(|e| format!("{e:?}"))
    };
    let first = run();
    assert_eq!(first, run(), "qlock certificate drifted between runs");
    let rendered = first.expect("the queuing lock certifies");
    assert!(rendered.contains("Obligation"), "certificate renders: {rendered}");
}

#[test]
fn serial_step_counters_are_reproducible() {
    let _g = serial();
    // The atom-step / outcome-hit / snapshot-resume counters are process-wide
    // and only serial-deterministic; two identical serial runs bracketed
    // by a reset must agree exactly, and the sharing counters must show
    // the kernel actually shared work on this grid.
    let iface = ticket_iface();
    let contexts = ticket_contexts();
    let run = || {
        ccal::core::prefix::steps_reset();
        let ob = check_liveness_with(
            &iface,
            "acq",
            &[Val::Loc(B)],
            Pid(0),
            &contexts,
            ticket_bound(4, 8, 2),
            FUEL,
            &explore(1, true, true),
        )
        .expect("acq is starvation-free under the rely");
        (
            format!("{ob:?}"),
            ccal::core::prefix::steps_total(),
            ccal::core::prefix::shared_total(),
            ccal::core::prefix::deep_total(),
            ccal::core::prefix::prim_steps_total(),
        )
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "serial step counters drifted between runs");
    assert!(first.1 > 0, "executed runs must record atom-steps");
    assert!(
        first.2 + first.3 > 0,
        "the kernel must share at least one lower run on this grid"
    );
}

/// The reuse sharing must keep, pinned per checker on the ticket workload
/// (serial, POR and convergence dedup on): executed atom-steps, runs
/// answered by a stored outcome (`shared_total`) and runs resumed from a
/// cut snapshot (`deep_total`). Each grid runs twice over in one family,
/// so the second half replays scripts the first half finished — including
/// runs that outlived their script, whose outcome and last cut both sit
/// at the full-script depth. An outcome that lost its key to a cut of the
/// same sub-case (or the reverse) shows up here as more atom-steps and
/// fewer outcome reuses.
#[test]
fn sharing_reuse_on_the_ticket_workload_is_pinned() {
    let _g = serial();
    let iface = ticket_iface();
    let ticket = twin_contexts(ticket_gen);
    let game = twin_contexts(game_gen);
    let focused = PidSet::from_pids([Pid(0), Pid(1)]);
    let programs = acq_rel_programs("acq", "rel");
    let validator = lock_history_validator();
    let scripts: Vec<OpScript> = vec![vec![
        ("acq".to_owned(), vec![Val::Loc(B)]),
        ("rel".to_owned(), vec![Val::Loc(B)]),
    ]];
    let opts = explore(1, true, true);
    let measure = |run: &dyn Fn() -> bool| {
        ccal::core::prefix::steps_reset();
        assert!(run(), "the ticket workload passes");
        (
            ccal::core::prefix::steps_total(),
            ccal::core::prefix::shared_total(),
            ccal::core::prefix::deep_total(),
        )
    };
    let checkers: [(&str, &dyn Fn() -> bool); 5] = [
        ("sim", &|| {
            check_prim_refinement(
                &iface,
                "acq",
                &lock_low_interface(),
                "acq",
                &SimRelation::identity(),
                Pid(0),
                &ticket,
                &[vec![Val::Loc(B)]],
                &SimOptions {
                    explore: opts.clone(),
                    ..SimOptions::default()
                },
            )
            .is_ok()
        }),
        ("live", &|| {
            check_liveness_with(
                &iface, "acq", &[Val::Loc(B)], Pid(0), &ticket, ticket_bound(4, 8, 2), FUEL, &opts,
            )
            .is_ok()
        }),
        ("linz", &|| {
            check_linearizability_with(
                &iface, &focused, &programs, &r1_relation(), &validator, &game, FUEL, &opts,
            )
            .is_ok()
        }),
        ("race", &|| {
            check_race_freedom_with(&iface, &focused, &programs, &game, FUEL, &opts).is_ok()
        }),
        ("seqref", &|| {
            check_sequence_refinement_with(
                &iface, &lock_interface(), &r1_relation(), Pid(0), &ticket, &scripts, FUEL, &opts,
            )
            .is_ok()
        }),
    ];
    let got: Vec<(&str, (u64, u64, u64))> =
        checkers.iter().map(|(name, run)| (*name, measure(*run))).collect();
    // Measured on the engine that kept outcomes in a separate memo beside
    // the snapshot trie.
    let pinned: [(&str, (u64, u64, u64)); 5] = [
        ("sim", (140, 17, 14)),
        ("live", (140, 17, 14)),
        ("linz", (194, 16, 15)),
        ("race", (194, 16, 15)),
        ("seqref", (167, 17, 14)),
    ];
    assert_eq!(got, pinned, "(atom-steps, shared, deep) per checker");
}
