//! Convergence-dedup differential over the forensics pipeline and a
//! passing certification stack: collapsing fingerprint-identical
//! diamond suffixes must be *observationally inert*. The seeded-bug
//! fixtures must produce the same verdicts and the same captured
//! failing cases (index, detail, reason, log — byte for byte) with the
//! convergence cache on and off, across workers × POR × sharing
//! engine configs; a passing ticket-stack certification must keep its
//! per-obligation case accounting and verdict while *reducing* (never
//! changing the determinism of) the serial atom-step counters.

use std::sync::{Mutex, OnceLock};

use ccal_core::contexts::ContextGen;
use ccal_core::event::{Event, EventKind};
use ccal_core::explore::ExploreOptions;
use ccal_core::forensics::CaptureScope;
use ccal_core::id::{Loc, Pid};
use ccal_core::prefix;
use ccal_core::sim::SimOptions;
use ccal_core::val::Val;
use ccal_forensics::{all_fixtures, find, investigate, Fixture, RunConfig, ScriptedContext};
use ccal_objects::ticket;
use proptest::collection::vec;
use proptest::prelude::*;
use std::sync::Arc;

/// The prefix step counters are process-global; serialize every test
/// that brackets them.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// `(workers, dedup, por, share)` base configs; the convergence flag is
/// the differential axis layered on each.
fn base_grid() -> Vec<(usize, bool, bool, bool)> {
    vec![
        (1, false, false, false),
        (1, false, true, false),
        (1, false, false, true),
        (1, true, true, true),
        (2, true, false, true),
        (2, true, true, true),
    ]
}

fn config(base: (usize, bool, bool, bool), state_dedup: bool) -> RunConfig {
    let (workers, dedup, por, share) = base;
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

/// Runs a fixture under `cfg` and canonicalizes the observation: the
/// verdict plus the captured failures. Parallel workers may race later
/// failing cases into the capture buffer after the first failure
/// short-circuits the queue, so only serial configs pin the full list;
/// the index-least case — the engine's determinism contract — is pinned
/// everywhere.
fn observe(fx: &Fixture, cfg: &RunConfig) -> (Result<(), String>, String) {
    let scope = CaptureScope::begin();
    let verdict = (fx.runner)(&(fx.contexts)(), cfg);
    let captures = scope.take();
    let canonical = if cfg.explore.workers == 1 {
        format!("{captures:?}")
    } else {
        format!("{:?}", captures.iter().min_by_key(|c| c.case_index))
    };
    (verdict, canonical)
}

/// Failing polarity, all five checkers: verdict and first-failure
/// evidence are byte-identical with the convergence cache on and off,
/// across the engine grid. This is the grafting guard — a cached
/// failing suffix must replay onto the borrower's prefix log exactly.
#[test]
fn fixture_verdicts_and_captures_are_dedup_invariant() {
    let _guard = serial();
    for fx in all_fixtures() {
        for base in base_grid() {
            let off = observe(&fx, &config(base, false));
            let on = observe(&fx, &config(base, true));
            assert_eq!(
                off, on,
                "{}/{}: convergence dedup perturbed the observation under {base:?}",
                fx.checker, fx.object
            );
            assert!(
                off.0.is_err(),
                "{}/{}: seeded bug went undetected",
                fx.checker,
                fx.object
            );
        }
    }
}

/// Investigation artifacts (shrink trajectory, evidence, bytes, file
/// name) are identical whether the exploration that finds the witness
/// deduped convergent suffixes or not; replay itself always runs with
/// the cache off, and the artifact records that.
#[test]
fn investigation_artifacts_are_dedup_invariant() {
    let _guard = serial();
    for fx in all_fixtures() {
        let reference = investigate(&fx, &RunConfig::replay())
            .unwrap_or_else(|e| panic!("{}/{}: {e}", fx.checker, fx.object));
        assert!(
            !reference.options.state_dedup,
            "replay must record the cache off"
        );
        let mut deduped_cfg = RunConfig::replay();
        deduped_cfg.explore.state_dedup = true;
        let deduped = investigate(&fx, &deduped_cfg)
            .unwrap_or_else(|e| panic!("{}/{}: {e}", fx.checker, fx.object));
        assert_eq!(
            deduped.encode().pretty(),
            reference.encode().pretty(),
            "{}/{}: artifact drifted under convergence dedup",
            fx.checker,
            fx.object
        );
    }
}

/// A passing serial ticket-stack certification bracketed on the
/// process-global counters, with convergence dedup and the ClightX tier
/// as given.
struct TicketRun {
    /// `(description, cases_checked, cases_skipped, cases_reduced)` per
    /// obligation, pipeline order.
    obligations: Vec<(String, usize, usize, usize)>,
    steps: u64,
    converged: u64,
}

fn certify_ticket(state_dedup: bool, bytecode: bool) -> TicketRun {
    let b = Loc(0);
    let rounds = 2;
    let schedule_len = 3;
    let low = ContextGen::new(vec![Pid(0), Pid(1)])
        .with_player(Pid(1), Arc::new(ticket::TicketEnvPlayer::new(Pid(1), b, rounds)))
        .with_schedule_len(schedule_len)
        .contexts();
    let atomic = ContextGen::new(vec![Pid(0), Pid(1)])
        .with_player(Pid(1), Arc::new(ticket::FooEnvPlayer::new(Pid(1), b, rounds)))
        .with_schedule_len(schedule_len)
        .contexts();
    let steps0 = prefix::steps_total();
    let conv0 = prefix::converged_total();
    let sim = SimOptions {
        dedup: false,
        explore: ExploreOptions {
            workers: 1,
            state_dedup,
            bytecode,
            ..ExploreOptions::default()
        },
        ..SimOptions::default()
    };
    let stack = ticket::certify_ticket_stack_with(Pid(0), b, low, atomic, &sim)
        .expect("the ticket stack certifies");
    let obligations = stack
        .fun_lift
        .certificate
        .obligations()
        .iter()
        .chain(stack.log_lift.certificate.obligations())
        .chain(stack.client_layer.certificate.obligations())
        .map(|ob| {
            (
                ob.description.clone(),
                ob.cases_checked,
                ob.cases_skipped,
                ob.cases_reduced,
            )
        })
        .collect();
    TicketRun {
        obligations,
        steps: prefix::steps_total().saturating_sub(steps0),
        converged: prefix::converged_total().saturating_sub(conv0),
    }
}

/// Passing polarity, on both ClightX tiers: the contended ticket stack
/// certifies with the identical per-obligation accounting and verdict
/// under convergence dedup, the serial step counters are run-to-run
/// deterministic, and — on the bytecode tier, where ClightX primitives
/// expose a state fingerprint — the cache actually hits and saves atom
/// steps.
#[test]
fn passing_ticket_stack_is_dedup_invariant_and_cheaper() {
    let _guard = serial();
    for bytecode in [true, false] {
        let off = certify_ticket(false, bytecode);
        let on1 = certify_ticket(true, bytecode);
        let on2 = certify_ticket(true, bytecode);
        assert_eq!(
            on1.obligations, off.obligations,
            "convergence dedup perturbed the per-obligation accounting"
        );
        assert_eq!(
            on1.steps, on2.steps,
            "serial step counters must be run-to-run deterministic"
        );
        assert_eq!(
            on1.converged, on2.converged,
            "convergence hits must be run-to-run deterministic"
        );
        assert_eq!(off.converged, 0, "cache off records no hits");
        assert!(
            on1.steps <= off.steps,
            "dedup must never add steps ({} -> {})",
            off.steps,
            on1.steps
        );
        assert!(
            on1.converged > 0,
            "contended ticket stack produced no convergence hits (bytecode={bytecode})"
        );
        assert!(
            on1.steps < off.steps,
            "convergence hits saved no steps (bytecode={bytecode}: {} -> {})",
            off.steps,
            on1.steps
        );
    }
}

fn sim_fixture() -> &'static Fixture {
    static FX: OnceLock<Fixture> = OnceLock::new();
    FX.get_or_init(|| find("sim", "scratch-sensitive").expect("registered fixture"))
}

fn base_context() -> &'static ScriptedContext {
    static BASE: OnceLock<ScriptedContext> = OnceLock::new();
    BASE.get_or_init(|| {
        investigate(sim_fixture(), &RunConfig::replay())
            .expect("sim fixture investigates")
            .context
    })
}

/// Failure-preserving junk (see `shrink_props.rs`): env-pid schedule
/// slots or pushes to unrelated locations, both of which keep the
/// scratch-sensitive failure failing while growing the diamond mass the
/// convergence cache feeds on.
fn apply_junk(base: &ScriptedContext, ops: &[(u8, u8, u8)]) -> ScriptedContext {
    let mut sc = base.clone();
    for &(kind, sel, pos) in ops {
        let pid = Pid(1 + u32::from(sel) % 2);
        if kind % 2 == 0 {
            let at = usize::from(pos) % (sc.schedule.len() + 1);
            sc.schedule.insert(at, pid);
        } else {
            let ev = Event::new(
                pid,
                EventKind::Push(Loc(100 + u32::from(pos) % 8), Val::Int(i64::from(pos))),
            );
            let batches = sc.players.entry(pid).or_insert_with(|| vec![Vec::new()]);
            let at = usize::from(pos) % batches.len();
            batches[at].push(ev);
        }
    }
    sc
}

/// The first failure of a single-context grid, under an explicit
/// convergence setting (a dedup-sensitive `probe`).
fn first_failure(sc: &ScriptedContext, state_dedup: bool) -> Option<String> {
    let mut cfg = RunConfig::replay();
    cfg.explore.state_dedup = state_dedup;
    let scope = CaptureScope::begin();
    let _ = (sim_fixture().runner)(&[sc.to_env()], &cfg);
    scope
        .take()
        .into_iter()
        .min_by_key(|c| c.case_index)
        .map(|c| format!("{}|{}|{:?}|{:?}", c.case_index, c.reason, c.detail, c.log))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Proptest grid: randomly junk-augmented failing contexts produce
    /// byte-identical first-failure evidence (index, reason, detail,
    /// log) with the convergence cache on and off.
    #[test]
    fn junked_witness_evidence_is_dedup_invariant(
        ops in vec((0_u8..255, 0_u8..255, 0_u8..255), 1..10),
    ) {
        let junked = apply_junk(base_context(), &ops);
        let off = first_failure(&junked, false);
        let on = first_failure(&junked, true);
        prop_assert!(off.is_some(), "junked context stopped failing");
        prop_assert_eq!(off, on, "convergence dedup perturbed the evidence");
    }
}
