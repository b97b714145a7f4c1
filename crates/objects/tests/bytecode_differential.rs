//! Tier differential at the checker level: every verification driver —
//! simulation (`check_fun` via the ticket stack), liveness, race
//! freedom, linearizability and sequence refinement — must reach the
//! same verdict, with the same counts and the same first-failure
//! evidence, whether the ClightX bodies run on the bytecode VM or on
//! the tree-walking interpreter. The scenarios are ticket-lock layers
//! whose `acq`/`rel` are real ClightX code (`M1`), exercised across
//! worker counts, POR, and sharing.

use std::collections::BTreeMap;
use std::sync::Arc;

use ccal_core::conc::ThreadScript;
use ccal_core::contexts::ContextGen;
use ccal_core::env::EnvContext;
use ccal_core::explore::ExploreOptions;
use ccal_core::id::{Loc, Pid, PidSet};
use ccal_core::layer::LayerInterface;
use ccal_core::sim::SimOptions;
use ccal_core::val::Val;
use ccal_objects::ticket::{
    certify_ticket_stack_with, l0_interface, lock_interface, m1_module, r1_relation,
    FooEnvPlayer, TicketEnvPlayer,
};
use ccal_verifier::{
    check_linearizability_with, check_liveness_with, check_race_freedom_with,
    check_sequence_refinement_with, lock_history_validator, ticket_bound, OpScript,
};

const B: Loc = Loc(0);

/// Runs `f` once per tier (`true` = compiled) and asserts the outcomes
/// are identical; returns the (shared) outcome for further assertions.
fn both_tiers<T, F>(f: F) -> T
where
    T: PartialEq + std::fmt::Debug,
    F: Fn(bool) -> T,
{
    let on = f(true);
    let off = f(false);
    assert_eq!(on, off, "compiled and interpreted tiers diverged");
    on
}

/// The exploration settings the grid sweeps: (workers, por, sharing) —
/// serial baseline and parallel + POR with sharing.
const GRID: [(usize, bool, bool); 2] = [(1, false, false), (2, true, true)];

/// One [`GRID`] setting on one tier.
fn opts((workers, por, share): (usize, bool, bool), bytecode: bool) -> ExploreOptions {
    ExploreOptions {
        workers,
        por,
        share,
        bytecode,
        ..ExploreOptions::default()
    }
}

fn ticket_iface() -> LayerInterface {
    m1_module()
        .expect("M1 parses")
        .install(&l0_interface())
        .expect("M1 installs over L0")
}

fn liveness_contexts() -> Vec<EnvContext> {
    ContextGen::new(vec![Pid(0), Pid(1)])
        .with_player(Pid(1), Arc::new(TicketEnvPlayer::new(Pid(1), B, 2)))
        .with_schedule_len(4)
        .with_max_contexts(16)
        .contexts()
}

#[test]
fn liveness_verdict_is_tier_invariant() {
    let iface = ticket_iface();
    let contexts = liveness_contexts();
    for cfg in GRID {
        let ob = both_tiers(|bytecode| {
            check_liveness_with(
                &iface,
                "acq",
                &[Val::Loc(B)],
                Pid(0),
                &contexts,
                ticket_bound(4, 8, 2),
                200_000,
                &opts(cfg, bytecode),
            )
            .map_err(|e| e.to_string())
        })
        .expect("acq is starvation-free under the rely");
        assert!(ob.cases_checked > 0);
    }
}

#[test]
fn liveness_failure_evidence_is_tier_invariant() {
    let iface = ticket_iface();
    let contexts = liveness_contexts();
    for cfg in GRID {
        // Bound 1 is unmeetable: even an uncontended acq takes several
        // scheduling steps. Both tiers must starve at the same point
        // with the same rendered counterexample.
        let err = both_tiers(|bytecode| {
            check_liveness_with(
                &iface,
                "acq",
                &[Val::Loc(B)],
                Pid(0),
                &contexts,
                1,
                200_000,
                &opts(cfg, bytecode),
            )
            .map_err(|e| e.to_string())
        })
        .expect_err("bound 1 must fail");
        assert!(
            err.contains("steps") || err.contains("starvation"),
            "unexpected failure shape: {err}"
        );
    }
}

fn acq_rel_programs() -> BTreeMap<Pid, ThreadScript> {
    let mut programs: BTreeMap<Pid, ThreadScript> = BTreeMap::new();
    for pid in [Pid(0), Pid(1)] {
        programs.insert(
            pid,
            vec![
                ("acq".to_owned(), vec![Val::Loc(B)]),
                ("rel".to_owned(), vec![Val::Loc(B)]),
            ],
        );
    }
    programs
}

fn game_contexts() -> Vec<EnvContext> {
    ContextGen::new(vec![Pid(0), Pid(1)])
        .with_schedule_len(4)
        .with_max_contexts(16)
        .contexts()
}

#[test]
fn race_freedom_verdict_is_tier_invariant() {
    let iface = ticket_iface();
    let focused = PidSet::from_pids([Pid(0), Pid(1)]);
    let programs = acq_rel_programs();
    let contexts = game_contexts();
    for cfg in GRID {
        let outcome = both_tiers(|bytecode| {
            check_race_freedom_with(
                &iface,
                &focused,
                &programs,
                &contexts,
                200_000,
                &opts(cfg, bytecode),
            )
            .map_err(|e| e.to_string())
        });
        let ob = outcome.expect("ticket acq/rel is race-free");
        assert!(ob.cases_checked > 0);
    }
}

#[test]
fn linearizability_verdict_is_tier_invariant() {
    let iface = ticket_iface();
    let focused = PidSet::from_pids([Pid(0), Pid(1)]);
    let programs = acq_rel_programs();
    let contexts = game_contexts();
    let validator = lock_history_validator();
    for cfg in GRID {
        let outcome = both_tiers(|bytecode| {
            check_linearizability_with(
                &iface,
                &focused,
                &programs,
                &r1_relation(),
                &validator,
                &contexts,
                200_000,
                &opts(cfg, bytecode),
            )
            .map_err(|e| e.to_string())
        });
        let ob = outcome.expect("ticket histories linearize to lock histories");
        assert!(ob.cases_checked > 0);
    }
}

#[test]
fn sequence_refinement_verdict_is_tier_invariant() {
    let impl_iface = ticket_iface();
    let spec_iface = lock_interface();
    let scripts: Vec<OpScript> = vec![vec![
        ("acq".to_owned(), vec![Val::Loc(B)]),
        ("rel".to_owned(), vec![Val::Loc(B)]),
    ]];
    let contexts = liveness_contexts();
    for cfg in GRID {
        // The verdict (pass or fail, and if fail: which case, why) must
        // match tier-for-tier; the interesting property is invariance,
        // not the verdict itself.
        let _outcome = both_tiers(|bytecode| {
            check_sequence_refinement_with(
                &impl_iface,
                &spec_iface,
                &r1_relation(),
                Pid(0),
                &contexts,
                &scripts,
                200_000,
                &opts(cfg, bytecode),
            )
            .map_err(|e| e.to_string())
        });
    }
}

#[test]
fn full_ticket_stack_certificate_is_tier_invariant() {
    // The whole Fig. 5 pipeline — two `check_fun` obligations (both with
    // ClightX bodies), the log-lift, weakening and vertical composition —
    // rendered to its Debug form: every obligation count, rule name and
    // layer signature must match across tiers.
    let low = || {
        ContextGen::new(vec![Pid(0), Pid(1)])
            .with_player(Pid(1), Arc::new(TicketEnvPlayer::new(Pid(1), B, 2)))
            .with_schedule_len(3)
            .contexts()
    };
    let atomic = || {
        ContextGen::new(vec![Pid(0), Pid(1)])
            .with_player(Pid(1), Arc::new(FooEnvPlayer::new(Pid(1), B, 2)))
            .with_schedule_len(3)
            .contexts()
    };
    for (workers, dedup) in [(1, false), (2, true)] {
        let rendered = both_tiers(|bytecode| {
            let sim = SimOptions {
                dedup,
                explore: ExploreOptions {
                    workers,
                    bytecode,
                    ..ExploreOptions::default()
                },
                ..SimOptions::default()
            };
            certify_ticket_stack_with(Pid(0), B, low(), atomic(), &sim)
                .map(|stack| format!("{stack:?}"))
                .map_err(|e| e.to_string())
        });
        let stack = rendered.expect("the ticket stack certifies");
        assert!(stack.contains("Obligation"), "certificate renders: {stack}");
    }
}
