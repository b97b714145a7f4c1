//! Tier differential over the forensics pipeline: the seeded-bug
//! fixtures must produce the same verdicts, the same captured failing
//! cases (index, detail, reason, log — byte for byte; full list on the
//! serial engine, the deterministic index-least case under parallel
//! workers) and the same minimized artifacts whether ClightX primitives
//! run on the bytecode VM or the interpreter. The fixtures' objects are
//! strategy-backed, so the tier flag must be *inert* here — this is the
//! guard that flipping the execution tier perturbs nothing outside
//! ClightX dispatch.

use ccal_core::explore::ExploreOptions;
use ccal_core::forensics::CaptureScope;
use ccal_forensics::{all_fixtures, investigate, RunConfig};

/// Runs `f` on the compiled tier and on the interpreter and requires the
/// two results to be equal.
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

/// `(workers, dedup, por, share, state_dedup)`.
type Setting = (usize, bool, bool, bool, bool);

fn config((workers, dedup, por, share, state_dedup): Setting) -> RunConfig {
    RunConfig {
        dedup,
        explore: ExploreOptions {
            workers,
            por,
            share,
            state_dedup,
            ..ExploreOptions::default()
        },
    }
}

fn config_grid() -> Vec<RunConfig> {
    vec![
        config((1, false, false, false, false)),
        config((2, true, true, true, false)),
        config((2, true, true, true, true)),
    ]
}

#[test]
fn fixture_verdicts_and_captures_are_tier_invariant() {
    for fx in all_fixtures() {
        for cfg in config_grid() {
            let (verdict, captured, first) = both_tiers(|bytecode| {
                let mut cfg = cfg.clone();
                cfg.explore.bytecode = bytecode;
                let scope = CaptureScope::begin();
                let verdict = (fx.runner)(&(fx.contexts)(), &cfg);
                let captures = scope.take();
                // The engine's determinism contract covers the verdict
                // and the *index-least* failing case. With parallel
                // workers, which later failing cases were already
                // in-flight when the first failure short-circuited the
                // queue is thread-timing — not a tier property — so only
                // the serial config pins the full capture list.
                let canonical = if cfg.explore.workers == 1 {
                    format!("{captures:?}")
                } else {
                    format!("{:?}", captures.iter().min_by_key(|c| c.case_index))
                };
                (verdict, !captures.is_empty(), canonical)
            });
            assert!(
                verdict.is_err(),
                "{}/{}: seeded bug went undetected",
                fx.checker,
                fx.object
            );
            assert!(captured, "{}/{}: no capture", fx.checker, fx.object);
            assert!(!first.is_empty());
        }
    }
}

#[test]
fn investigation_artifacts_are_tier_invariant() {
    for fx in all_fixtures() {
        let artifact = both_tiers(|bytecode| {
            let mut a = investigate(&fx, &RunConfig::replay_on(bytecode))
                .unwrap_or_else(|e| panic!("{}/{}: {e}", fx.checker, fx.object));
            // The options fingerprint records the tier the investigation
            // ran under — the one field that is *supposed* to differ.
            // Everything else (context, evidence, shrink trajectory, file
            // name) must be bit-identical, so compare modulo that field.
            assert_eq!(a.options.bytecode, bytecode);
            a.options.bytecode = false;
            (a.file_name(), a.encode().pretty())
        });
        assert!(artifact.0.starts_with(fx.checker));
    }
}

/// Everything one isolated call pair observes on the ticket stack: the
/// liveness verdict at the paper's bound (case counts), the starvation
/// counterexample at an unmeetable bound (first-failure evidence), the
/// fun-lift simulation of `acq` (case counts and probe logs), and the
/// tier a forensics investigation records.
#[derive(Debug, PartialEq)]
struct TicketObservation {
    live: String,
    starving: String,
    sim: String,
    artifact_bytecode: bool,
}

/// Runs `check_liveness_with` and `check_prim_refinement` on the ticket
/// stack under one tier and convergence setting, then a forensics
/// investigation on the same tier. `between` runs after the checks and
/// before the investigation (a rendezvous for the concurrent caller).
fn observe_ticket(bytecode: bool, state_dedup: bool, between: &dyn Fn()) -> TicketObservation {
    use ccal_core::contexts::ContextGen;
    use ccal_core::id::{Loc, Pid};
    use ccal_core::sim::{check_prim_refinement, SimOptions, SimRelation};
    use ccal_core::val::Val;
    use ccal_objects::ticket::{l0_interface, lock_low_interface, m1_module, TicketEnvPlayer};
    use ccal_verifier::{check_liveness_with, ticket_bound};
    use std::sync::Arc;

    let b = Loc(0);
    let opts = ExploreOptions {
        bytecode,
        state_dedup,
        ..ExploreOptions::default()
    };
    let iface = m1_module()
        .expect("M1 parses")
        .install(&l0_interface())
        .expect("M1 installs over L0");
    let contexts = ContextGen::new(vec![Pid(0), Pid(1)])
        .with_player(Pid(1), Arc::new(TicketEnvPlayer::new(Pid(1), b, 2)))
        .with_schedule_len(4)
        .with_max_contexts(16)
        .contexts();
    let live = |bound| {
        format!(
            "{:?}",
            check_liveness_with(
                &iface,
                "acq",
                &[Val::Loc(b)],
                Pid(0),
                &contexts,
                bound,
                200_000,
                &opts
            )
        )
    };
    let sim = check_prim_refinement(
        &iface,
        "acq",
        &lock_low_interface(),
        "acq",
        &SimRelation::identity(),
        Pid(0),
        &contexts,
        &[vec![Val::Loc(b)]],
        &SimOptions {
            explore: opts.clone(),
            ..SimOptions::default()
        },
    );
    let observation = (live(ticket_bound(4, 8, 2)), live(1), format!("{sim:?}"));
    between();
    let fx = all_fixtures()
        .into_iter()
        .next()
        .expect("a registered fixture");
    let artifact = investigate(&fx, &RunConfig::replay_on(bytecode))
        .unwrap_or_else(|e| panic!("{}/{}: {e}", fx.checker, fx.object));
    TicketObservation {
        live: observation.0,
        starving: observation.1,
        sim: observation.2,
        artifact_bytecode: artifact.options.bytecode,
    }
}

/// Isolation: two threads check the ticket stack at the same time with
/// opposite tiers and convergence settings, and each thread's verdicts,
/// case counts, first-failure evidence and recorded tier equal the same
/// calls run alone. The options travel with each call, so concurrent
/// checks cannot observe each other's choices. (The investigations run
/// after a rendezvous: capture scopes are exclusive by design.)
#[test]
fn concurrent_checks_with_opposite_options_match_solo_runs() {
    use std::sync::Barrier;

    let configs = [(true, false), (false, true)];
    let solo: Vec<TicketObservation> = configs
        .iter()
        .map(|&(bytecode, state_dedup)| observe_ticket(bytecode, state_dedup, &|| {}))
        .collect();
    assert!(
        solo[0].starving.starts_with("Err"),
        "bound 1 must starve: {}",
        solo[0].starving
    );
    assert!(
        solo[0].live.starts_with("Ok"),
        "acq is live: {}",
        solo[0].live
    );
    let start = Barrier::new(configs.len());
    let checked = Barrier::new(configs.len());
    let concurrent: Vec<TicketObservation> = std::thread::scope(|s| {
        let handles: Vec<_> = configs
            .iter()
            .map(|&(bytecode, state_dedup)| {
                let (start, checked) = (&start, &checked);
                s.spawn(move || {
                    start.wait();
                    observe_ticket(bytecode, state_dedup, &|| {
                        checked.wait();
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("checker thread"))
            .collect()
    });
    for ((bytecode, state_dedup), (alone, together)) in
        configs.iter().zip(solo.iter().zip(&concurrent))
    {
        assert_eq!(
            alone, together,
            "bytecode={bytecode} state_dedup={state_dedup}: a concurrent run with the \
             opposite options perturbed this call"
        );
        assert_eq!(together.artifact_bytecode, *bytecode);
    }
}
