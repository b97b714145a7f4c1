//! The `engine-contended` workload: the certification engine in process.
//!
//! Each round runs the contended ticket fun-lift (3-pid domain, two
//! `TicketEnvPlayer` contenders, uncapped `3^L` grid) at L = 6, 7 and 8,
//! once with the program's default worker count and once with
//! `workers = 1`, plus one call each of the liveness, race-freedom,
//! linearizability and sequence-refinement checkers on the ticket lock.
//! Some obligations repeat within a round (see [`round`]).
//! The seed orders the calls within each round. No socket, store or
//! lease is involved.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use ccal_core::calculus::{check_fun, CheckOptions};
use ccal_core::conc::ThreadScript;
use ccal_core::contexts::ContextGen;
use ccal_core::env::EnvContext;
use ccal_core::id::{Loc, Pid, PidSet};
use ccal_core::layer::LayerInterface;
use ccal_core::module::Module;
use ccal_core::prefix;
use ccal_core::sim::SimRelation;
use ccal_core::val::Val;
use ccal_objects::ticket::{
    l0_interface, lock_interface, lock_low_interface, r1_relation, TicketEnvPlayer, M1_SOURCE,
};
use ccal_verifier::{
    check_linearizability, check_liveness, check_race_freedom, check_sequence_refinement,
    lock_history_validator, ticket_bound, OpScript,
};

use crate::answers::Answers;
use crate::stats::Rng;
use crate::trace::Tracer;

/// The ticket lock location.
const B: Loc = Loc(0);
/// Schedule lengths of the contended obligation.
const CONTENDED_LENS: [usize; 3] = [6, 7, 8];
/// Schedule length of the verifier calls (2-pid domain, `2^6` contexts).
const VERIFIER_LEN: usize = 6;
/// Fuel per verifier run.
const FUEL: u64 = 200_000;

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// The contended ticket fun-lift at schedule length `l`.
    Contended {
        /// Schedule length.
        l: usize,
        /// `workers = 1` instead of the program's default.
        serial: bool,
    },
    /// A verifier check on the ticket lock.
    Verifier(&'static str),
}

impl Call {
    /// A short stable label.
    pub fn label(self) -> String {
        match self {
            Call::Contended { l, serial } => {
                format!(
                    "contended-L{l}-{}",
                    if serial { "serial" } else { "default" }
                )
            }
            Call::Verifier(check) => format!("verifier-{check}"),
        }
    }
}

/// Process-global engine counters, read as deltas around one call. Only
/// one certification runs in this process at a time, so the deltas
/// belong to that call.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Machine-level atom-steps.
    pub steps: u64,
    /// Primitive steps.
    pub prim_steps: u64,
    /// Lower runs answered by the prefix memo.
    pub shared: u64,
    /// Runs resumed from a query-point snapshot.
    pub deep: u64,
    /// Suffixes answered by the convergence cache.
    pub conv_hits: u64,
    /// Convergence-cache evictions.
    pub conv_evictions: u64,
}

impl Counters {
    fn read() -> Counters {
        Counters {
            steps: prefix::steps_total(),
            prim_steps: prefix::prim_steps_total(),
            shared: prefix::shared_total(),
            deep: prefix::deep_total(),
            conv_hits: prefix::converged_total(),
            conv_evictions: prefix::conv_evictions_total(),
        }
    }

    fn since(self, before: Counters) -> Counters {
        Counters {
            steps: self.steps - before.steps,
            prim_steps: self.prim_steps - before.prim_steps,
            shared: self.shared - before.shared,
            deep: self.deep - before.deep,
            conv_hits: self.conv_hits - before.conv_hits,
            conv_evictions: self.conv_evictions - before.conv_evictions,
        }
    }
}

/// The result of one call.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The call.
    pub call: Call,
    /// Wall time of the whole call (context generation included).
    pub ms: f64,
    /// Cases discharged (checked + skipped + reduced).
    pub cases: usize,
    /// Cases pruned by partial-order reduction.
    pub reduced: usize,
    /// Counter deltas.
    pub counters: Counters,
    /// A verdict or known-answer mismatch.
    pub error: Option<String>,
}

/// Everything the calls share, built once: the module front end and
/// the interfaces.
pub struct Fixtures {
    m1: Module,
    l0: LayerInterface,
    low: LayerInterface,
    lock_iface: LayerInterface,
    installed: LayerInterface,
    programs: BTreeMap<Pid, ThreadScript>,
}

impl Fixtures {
    /// Runs the ClightX front end on M1 and builds the interfaces.
    pub fn build(tr: &mut Tracer) -> Fixtures {
        let m1 = tr.span("clightx.front_end", "M1", |_| {
            ccal_clightx::clightx_module("M1", M1_SOURCE).expect("M1 front end")
        });
        let l0 = l0_interface();
        let installed = m1.install(&l0).expect("M1 installs over L0");
        let lock_script: ThreadScript = vec![
            ("acq".to_owned(), vec![Val::Loc(B)]),
            ("rel".to_owned(), vec![Val::Loc(B)]),
        ];
        let programs = [Pid(0), Pid(1)]
            .into_iter()
            .map(|p| (p, lock_script.clone()))
            .collect();
        Fixtures {
            m1,
            l0,
            low: lock_low_interface(),
            lock_iface: lock_interface(),
            installed,
            programs,
        }
    }
}

/// The contended grid: 3 pids, two ticket contenders, uncapped.
fn contended_contexts(l: usize) -> Vec<EnvContext> {
    ContextGen::new(vec![Pid(0), Pid(1), Pid(2)])
        .with_player(Pid(1), Arc::new(TicketEnvPlayer::new(Pid(1), B, 1)))
        .with_player(Pid(2), Arc::new(TicketEnvPlayer::new(Pid(2), B, 1)))
        .with_schedule_len(l)
        .with_max_contexts(3_usize.pow(l as u32))
        .contexts()
}

fn verifier_contexts(with_player: bool) -> Vec<EnvContext> {
    let gen = ContextGen::new(vec![Pid(0), Pid(1)]);
    let gen = if with_player {
        gen.with_player(Pid(1), Arc::new(TicketEnvPlayer::new(Pid(1), B, 2)))
    } else {
        gen
    };
    gen.with_schedule_len(VERIFIER_LEN)
        .with_max_contexts(1 << VERIFIER_LEN)
        .contexts()
}

/// One round of calls, in a seeded order. The L = 6 obligations run
/// twice each and the default-worker L = 8 one three times, so that the
/// round's 14 calls put the median latency in the middle of the serial
/// L = 6 band and p75 inside the default L = 8 band, not on the edge
/// between two bands.
pub fn round(rng: &mut Rng) -> Vec<Call> {
    let repeats = |l: usize, serial: bool| match (l, serial) {
        (6, _) => 2,
        (8, false) => 3,
        _ => 1,
    };
    let mut calls: Vec<Call> = CONTENDED_LENS
        .iter()
        .flat_map(|&l| [false, true].map(|serial| (l, serial)))
        .flat_map(|(l, serial)| {
            std::iter::repeat_n(Call::Contended { l, serial }, repeats(l, serial))
        })
        .chain(["live", "race", "linz", "seqref"].map(Call::Verifier))
        .collect();
    rng.shuffle(&mut calls);
    calls
}

/// Runs one call under span id `id` and checks it against its known
/// answer.
pub fn run(fx: &Fixtures, call: Call, answers: &Answers, id: &str, tr: &mut Tracer) -> Outcome {
    let before = Counters::read();
    let start = Instant::now();
    let result = tr.span("engine.call", id, |tr| match call {
        Call::Contended { l, serial } => {
            let contexts = tr.span("contexts.gen", id, |_| contended_contexts(l));
            let mut opts = CheckOptions::new(contexts)
                .with_workload("acq", vec![vec![Val::Loc(B)]])
                .with_workload("rel", vec![vec![Val::Loc(B)]]);
            if serial {
                opts = opts.with_workers(1);
            }
            let name = if serial {
                "explore.check_fun.serial"
            } else {
                "explore.check_fun.default"
            };
            tr.span(name, id, |_| {
                check_fun(
                    &fx.l0,
                    &fx.m1,
                    &fx.low,
                    &SimRelation::identity(),
                    Pid(0),
                    &opts,
                )
            })
            .map(|layer| {
                let c = &layer.certificate;
                (
                    c.total_cases() + c.total_skipped() + c.total_reduced(),
                    c.total_reduced(),
                )
            })
            .map_err(|e| e.to_string())
        }
        Call::Verifier(check) => {
            let contexts = tr.span("contexts.gen", id, |_| {
                verifier_contexts(check != "race" && check != "linz")
            });
            let focused = PidSet::from_pids([Pid(0), Pid(1)]);
            let name = match check {
                "live" => "verifier.live",
                "race" => "verifier.race",
                "linz" => "verifier.linz",
                _ => "verifier.seqref",
            };
            tr.span(name, id, |_| match check {
                "live" => check_liveness(
                    &fx.installed,
                    "acq",
                    &[Val::Loc(B)],
                    Pid(0),
                    &contexts,
                    ticket_bound(4, 8, 2),
                    FUEL,
                ),
                "race" => {
                    check_race_freedom(&fx.installed, &focused, &fx.programs, &contexts, FUEL)
                }
                "linz" => check_linearizability(
                    &fx.installed,
                    &focused,
                    &fx.programs,
                    &r1_relation(),
                    &*lock_history_validator(),
                    &contexts,
                    FUEL,
                ),
                _ => {
                    let scripts: Vec<OpScript> = vec![fx.programs[&Pid(0)].clone()];
                    check_sequence_refinement(
                        &fx.installed,
                        &fx.lock_iface,
                        &r1_relation(),
                        Pid(0),
                        &contexts,
                        &scripts,
                        FUEL,
                    )
                }
            })
            .map(|ob| {
                (
                    ob.cases_checked + ob.cases_skipped + ob.cases_reduced,
                    ob.cases_reduced,
                )
            })
            .map_err(|e| e.to_string())
        }
    });
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let counters = Counters::read().since(before);
    let expected = match call {
        Call::Contended { l, .. } => answers.contended(l),
        Call::Verifier(check) => answers.verifier(check),
    };
    let (cases, reduced, error) = match result {
        Ok((cases, reduced)) if cases == expected => (cases, reduced, None),
        Ok((cases, reduced)) => (
            cases,
            reduced,
            Some(format!(
                "{}: expected {expected} cases, got {cases}",
                call.label()
            )),
        ),
        Err(e) => (
            0,
            0,
            Some(format!(
                "{}: expected a certificate, got: {e}",
                call.label()
            )),
        ),
    };
    Outcome {
        call,
        ms,
        cases,
        reduced,
        counters,
        error,
    }
}
