//! Sequential (multi-call) refinement checking.
//!
//! The `Fun`-rule checker in `ccal-core` verifies one primitive invocation
//! from the initial state. Stateful objects — queues, schedulers — need
//! *sequences* of operations checked against their specifications, because
//! interesting behavior only appears from non-initial states ("the queue
//! is represented as a logical list in the specification, while it is
//! implemented as a doubly linked list", §6). [`check_sequence_refinement`]
//! runs whole operation scripts on a single machine pair and compares
//! every return value and the final logs through the simulation relation.

use ccal_core::calculus::{LayerError, Obligation, Rule};
use ccal_core::env::EnvContext;
use ccal_core::explore::{Case, ExploreOptions, Kernel};
use ccal_core::id::Pid;
use ccal_core::layer::LayerInterface;
use ccal_core::machine::LayerMachine;
use ccal_core::sim::{replay_env, SimRelation};
use ccal_core::val::Val;

/// A script of operations for sequence checking.
pub type OpScript = Vec<(String, Vec<Val>)>;

/// Checks that the implementation interface refines the specification
/// interface on whole operation scripts: for every context and script, the
/// two machines return the same values call-for-call, and the final logs
/// are related by `relation`. The spec run's environment is derived from
/// the implementation run by abstraction + replay, as in Def. 2.1.
///
/// # Errors
///
/// [`LayerError::Mismatch`] on the first disagreeing case;
/// [`LayerError::Machine`] if a run fails outright.
pub fn check_sequence_refinement(
    impl_iface: &LayerInterface,
    spec_iface: &LayerInterface,
    relation: &SimRelation,
    pid: Pid,
    contexts: &[EnvContext],
    scripts: &[OpScript],
    fuel: u64,
) -> Result<Obligation, LayerError> {
    check_sequence_refinement_with(
        impl_iface,
        spec_iface,
        relation,
        pid,
        contexts,
        scripts,
        fuel,
        &ExploreOptions::default(),
    )
}

/// [`check_sequence_refinement`] under explicit exploration options
/// ([`ExploreOptions`]): worker count (`1` explores the grid serially on
/// the calling thread, the reference behavior the forensics replay gate
/// uses for bit-identical reproduction), partial-order reduction, prefix
/// and query-point sharing, convergence dedup and the ClightX execution
/// tier. No option changes the verdict or the evidence.
///
/// # Errors
///
/// As [`check_sequence_refinement`].
#[allow(clippy::too_many_arguments)]
pub fn check_sequence_refinement_with(
    impl_iface: &LayerInterface,
    spec_iface: &LayerInterface,
    relation: &SimRelation,
    pid: Pid,
    contexts: &[EnvContext],
    scripts: &[OpScript],
    fuel: u64,
    opts: &ExploreOptions,
) -> Result<Obligation, LayerError> {
    // The impl-machine run is a deterministic function of the consumed
    // schedule prefix and the script index, so it is shared across contexts
    // as an outcome in the kernel's store. The spec phase replays the
    // abstracted impl log (context-independent) and is recomputed per case:
    // its environment is derived from the stored impl log, so recomputation
    // is deterministic.
    #[allow(clippy::items_after_statements)]
    #[derive(Clone)]
    enum ImplRun {
        Skipped,
        Failed {
            log: ccal_core::log::Log,
            err: ccal_core::machine::MachineError,
        },
        Done {
            log: ccal_core::log::Log,
            rets: Vec<Val>,
        },
    }
    // A query-point snapshot of the impl machine mid-script (sharing):
    // the in-flight run of script call `extra.0`, with the
    // return values of the calls already completed in `extra.1`.
    #[allow(clippy::items_after_statements)]
    type SeqSnap = ccal_core::explore::RunSnap<(usize, Vec<Val>)>;
    let nscripts = scripts.len();
    let kernel: Kernel<SeqSnap, ImplRun> = Kernel::new(opts);
    let sched_consumed =
        |m: &LayerMachine| m.log.iter().filter(|e| e.is_sched()).count();
    // Sequence-refinement convergence fingerprint: the machine fingerprint
    // alone is not canonical mid-script — two cuts can agree on machine
    // state yet sit at different script positions or carry different
    // completed return values (which are not part of the machine). Extend
    // the fingerprint with both so a hit implies the donor's prefix rets
    // equal the borrower's.
    let seq_fp = |mach: &LayerMachine,
                  r: &dyn ccal_core::layer::PrimRun,
                  call: usize,
                  rets: &[Val]|
     -> Option<ccal_core::fingerprint::ContentHash> {
        let fp = mach.conv_fingerprint(r)?;
        let mut h = ccal_core::fingerprint::ContentHasher::new();
        h.section("ccal.conv.seqref.v1");
        h.bytes("machine.fp", &fp.0.to_le_bytes());
        h.usize("script.call", call);
        h.usize("script.nrets", rets.len());
        for (i, v) in rets.iter().enumerate() {
            h.val(&format!("script.ret[{i}]"), v);
        }
        Some(h.finish())
    };
    // Grafts a convergence donor's suffix log onto the borrower's executed
    // prefix (`m` is parked exactly at the cut). The donor's rets are
    // reused wholesale: the fingerprint pins the prefix rets equal, and
    // the suffix is deterministic from the cut.
    let graft_impl = |m: &LayerMachine, donor: ImplRun, donor_cut: usize| -> ImplRun {
        let graft = |donor_log: &ccal_core::log::Log| {
            let mut log = m.log.clone();
            log.append_all(donor_log.suffix_from(donor_cut).cloned());
            log
        };
        match donor {
            ImplRun::Skipped => ImplRun::Skipped,
            ImplRun::Failed { log, err } => ImplRun::Failed {
                log: graft(&log),
                err,
            },
            ImplRun::Done { log, rets } => ImplRun::Done {
                log: graft(&log),
                rets,
            },
        }
    };
    // Runs script `si` on `m` from call index `first` (finishing `inflight`
    // first when resuming a snapshot), capturing a snapshot at every query
    // point when sharing is on and probing the convergence cache when
    // dedup is on. Returns the completed return values, or the aborted
    // outcome — paired with `Some(donor consumed depth)` on a convergence
    // hit (the caller stores the outcome at that depth, not the cut's). Cuts passed
    // without a hit are pushed onto `probes` for the caller to seed.
    let run_script = |m: &mut LayerMachine,
                      si: usize,
                      first: usize,
                      inflight: Option<Box<dyn ccal_core::layer::PrimRun>>,
                      mut rets: Vec<Val>,
                      key: Option<&ccal_core::prefix::ScheduleKey>,
                      conv_key: Option<&ccal_core::prefix::ScheduleKey>,
                      probes: &mut Vec<(ccal_core::fingerprint::ContentHash, usize, usize)>|
     -> Result<Vec<Val>, (ImplRun, Option<usize>)> {
        let script = &scripts[si];
        let mut next = first;
        let mut conv: Option<(ImplRun, usize)> = None;
        if let Some(run) = inflight {
            let before = rets.clone();
            let mut hook = |mach: &LayerMachine, r: &dyn ccal_core::layer::PrimRun| -> bool {
                if let Some(k) = key {
                    kernel.snapshot(k, si, sched_consumed(mach), || {
                        Some(SeqSnap {
                            machine: mach.fork(),
                            run: r.fork_run()?,
                            extra: (first, before.clone()),
                        })
                    });
                }
                if let Some(k) = conv_key {
                    let consumed = sched_consumed(mach);
                    if let Some(fp) = seq_fp(mach, r, first, &before) {
                        if let Some((donor, donor_cut, donor_consumed)) =
                            kernel.converged(k, si, consumed, fp)
                        {
                            conv = Some((graft_impl(mach, donor, donor_cut), donor_consumed));
                            return true;
                        }
                        probes.push((fp, consumed, mach.log.len()));
                    }
                }
                false
            };
            match m.resume_query_ctl(run, &mut hook) {
                Ok(Some(v)) => rets.push(v),
                Ok(None) => {
                    let (outcome, donor_consumed) =
                        conv.take().expect("an aborted call implies a convergence hit");
                    return Err((outcome, Some(donor_consumed)));
                }
                Err(e) if e.is_invalid_context() => return Err((ImplRun::Skipped, None)),
                Err(e) => {
                    return Err((
                        ImplRun::Failed {
                            log: m.log.clone(),
                            err: e,
                        },
                        None,
                    ));
                }
            }
            next = first + 1;
        }
        for (i, (name, args)) in script.iter().enumerate().skip(next) {
            let before = rets.clone();
            let mut hook = |mach: &LayerMachine, r: &dyn ccal_core::layer::PrimRun| -> bool {
                if let Some(k) = key {
                    kernel.snapshot(k, si, sched_consumed(mach), || {
                        Some(SeqSnap {
                            machine: mach.fork(),
                            run: r.fork_run()?,
                            extra: (i, before.clone()),
                        })
                    });
                }
                if let Some(k) = conv_key {
                    let consumed = sched_consumed(mach);
                    if let Some(fp) = seq_fp(mach, r, i, &before) {
                        if let Some((donor, donor_cut, donor_consumed)) =
                            kernel.converged(k, si, consumed, fp)
                        {
                            conv = Some((graft_impl(mach, donor, donor_cut), donor_consumed));
                            return true;
                        }
                        probes.push((fp, consumed, mach.log.len()));
                    }
                }
                false
            };
            let res = if key.is_some() || conv_key.is_some() {
                m.call_prim_ctl(name, args, &mut hook)
            } else {
                m.call_prim(name, args).map(Some)
            };
            match res {
                Ok(Some(v)) => rets.push(v),
                Ok(None) => {
                    let (outcome, donor_consumed) =
                        conv.take().expect("an aborted call implies a convergence hit");
                    return Err((outcome, Some(donor_consumed)));
                }
                Err(e) if e.is_invalid_context() => return Err((ImplRun::Skipped, None)),
                Err(e) => {
                    return Err((
                        ImplRun::Failed {
                            log: m.log.clone(),
                            err: e,
                        },
                        None,
                    ));
                }
            }
        }
        Ok(rets)
    };
    // Seals one executed (or converged) script run: records the executed
    // step work, seeds the convergence cache at every cut a *completed*
    // run passed through, and returns the consumed depth — the donor's on
    // a convergence hit.
    let seal_run = |m: &LayerMachine,
                    si: usize,
                    conv_key: Option<&ccal_core::prefix::ScheduleKey>,
                    probes: Vec<(ccal_core::fingerprint::ContentHash, usize, usize)>,
                    outcome: &ImplRun,
                    over: Option<usize>,
                    pre: u64|
     -> usize {
        ccal_core::prefix::record_steps(m.steps_taken() + m.log.len() as u64 - pre);
        let consumed = over.unwrap_or_else(|| sched_consumed(m));
        if over.is_none() {
            if let Some(k) = conv_key {
                for (fp, cut_consumed, cut_len) in probes {
                    kernel.converge_record(
                        k,
                        si,
                        cut_consumed,
                        fp,
                        cut_len,
                        consumed,
                        outcome.clone(),
                    );
                }
            }
        }
        consumed
    };
    let exec_impl = |env: &EnvContext, si: usize| -> (ImplRun, usize) {
        let conv_key = kernel.conv_key(env);
        let mut probes: Vec<(ccal_core::fingerprint::ContentHash, usize, usize)> = Vec::new();
        if let Some(k) = kernel.share_key(env) {
            if let Some((_, SeqSnap { machine, run, extra: (call, rets) })) =
                kernel.resume_deepest(k, si)
            {
                // Fork the deepest snapshotted ancestor and execute only
                // the schedule suffix, counting only the suffix work.
                let mut m = machine.fork_with_env(env.clone());
                let pre = m.steps_taken() + m.log.len() as u64;
                let (outcome, over) = match run_script(
                    &mut m,
                    si,
                    call,
                    Some(run),
                    rets,
                    Some(k),
                    conv_key,
                    &mut probes,
                ) {
                    Ok(rets) => (
                        ImplRun::Done {
                            log: m.log.clone(),
                            rets,
                        },
                        None,
                    ),
                    Err(aborted) => aborted,
                };
                let consumed = seal_run(&m, si, conv_key, probes, &outcome, over, pre);
                return (outcome, consumed);
            }
        }
        let mut impl_machine = LayerMachine::new(impl_iface.clone(), pid, env.clone())
            .with_fuel(fuel)
            .with_bytecode(opts.bytecode);
        let (outcome, over) = match run_script(
            &mut impl_machine,
            si,
            0,
            None,
            Vec::new(),
            kernel.share_key(env),
            conv_key,
            &mut probes,
        ) {
            Ok(rets) => (
                ImplRun::Done {
                    log: impl_machine.log.clone(),
                    rets,
                },
                None,
            ),
            Err(aborted) => aborted,
        };
        let consumed = seal_run(&impl_machine, si, conv_key, probes, &outcome, over, 0);
        (outcome, consumed)
    };
    let explored = kernel.explore("seqref", contexts, nscripts, |ci, si| {
        let env = &contexts[ci];
        let script = &scripts[si];
        let fail = |reason: String, log: &ccal_core::log::Log, err: LayerError| {
            Case::failed(err, log.clone(), reason, format!("context #{ci}, script #{si}"))
        };
        let (impl_log, impl_rets) = match kernel.run_shared(env, si, || exec_impl(env, si)) {
            ImplRun::Skipped => return Case::Skipped,
            ImplRun::Failed { log, err } => {
                let reason = format!("impl machine failure: {err}");
                return fail(reason, &log, LayerError::Machine(err));
            }
            ImplRun::Done { log, rets } => (log, rets),
        };
        let Some(expected) = relation.abstracted(&impl_log) else {
            return fail(
                format!("log not in domain of {}", relation.name()),
                &impl_log,
                LayerError::Mismatch {
                    expected: format!("log in domain of {}", relation.name()),
                    found: impl_log.to_string(),
                    context: format!("sequence refinement, context #{ci}, script #{si}"),
                },
            );
        };
        let mut spec_machine =
            LayerMachine::new(spec_iface.clone(), pid, replay_env(&expected, pid))
                .with_fuel(fuel)
                .with_bytecode(opts.bytecode);
        let mut spec_rets = Vec::with_capacity(script.len());
        for (name, args) in script {
            match spec_machine.call_prim(name, args) {
                Ok(v) => spec_rets.push(v),
                Err(e) if e.is_invalid_context() => return Case::Skipped,
                Err(e) => {
                    let reason = format!("spec machine failure: {e}");
                    return fail(reason, &impl_log, LayerError::Machine(e));
                }
            }
        }
        if impl_rets != spec_rets {
            return fail(
                format!("rets diverge: impl {impl_rets:?} vs spec {spec_rets:?}"),
                &impl_log,
                LayerError::Mismatch {
                    expected: format!("{spec_rets:?} (spec)"),
                    found: format!("{impl_rets:?} (impl)"),
                    context: format!("sequence refinement rets, context #{ci}, script #{si}"),
                },
            );
        }
        // `expected` already is the abstraction of the impl log, so
        // R(impl, spec) reduces to one comparison (no re-abstraction).
        if expected != spec_machine.log.without_sched() {
            return fail(
                "final logs diverge through the relation".to_owned(),
                &impl_log,
                LayerError::Mismatch {
                    expected: spec_machine.log.to_string(),
                    found: impl_log.to_string(),
                    context: format!("sequence refinement logs, context #{ci}, script #{si}"),
                },
            );
        }
        Case::Checked(())
    });
    if let Some(e) = explored.failure {
        return Err(e);
    }
    Ok(Obligation {
        rule: Rule::IfaceSim,
        description: format!(
            "{} ≤_{} {} on {} op scripts",
            impl_iface.name,
            relation.name(),
            spec_iface.name,
            scripts.len()
        ),
        cases_checked: explored.cases_checked,
        cases_skipped: explored.cases_skipped,
        cases_reduced: explored.cases_reduced,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccal_core::contexts::ContextGen;
    use ccal_core::event::EventKind;
    use ccal_core::layer::PrimSpec;

    /// An "implementation" counter that stores state in the abstract state,
    /// and a "spec" counter that replays the log — sequence refinement
    /// relates them.
    fn impl_iface() -> LayerInterface {
        LayerInterface::builder("ctr-impl")
            .prim(PrimSpec::atomic("bump", |ctx, _| {
                let n = ctx.abs.get_or_undef("n").as_int().unwrap_or(0) + 1;
                ctx.abs.set("n", Val::Int(n));
                ctx.emit(EventKind::Prim("bump".into(), vec![]));
                Ok(Val::Int(n))
            }))
            .build()
    }

    fn spec_iface() -> LayerInterface {
        LayerInterface::builder("ctr-spec")
            .prim(PrimSpec::atomic("bump", |ctx, _| {
                ctx.emit(EventKind::Prim("bump".into(), vec![]));
                let n = ctx
                    .log
                    .iter()
                    .filter(|e| e.pid == ctx.pid && matches!(&e.kind, EventKind::Prim(p, _) if p == "bump"))
                    .count();
                Ok(Val::Int(n as i64))
            }))
            .build()
    }

    #[test]
    fn stateful_and_replay_counters_agree_on_scripts() {
        let contexts = ContextGen::new(vec![Pid(0), Pid(1)])
            .with_schedule_len(2)
            .contexts();
        let scripts = vec![
            vec![("bump".to_owned(), vec![]); 3],
            vec![("bump".to_owned(), vec![])],
        ];
        let ob = check_sequence_refinement(
            &impl_iface(),
            &spec_iface(),
            &SimRelation::identity(),
            Pid(0),
            &contexts,
            &scripts,
            100_000,
        )
        .unwrap();
        assert!(ob.cases_checked > 0);
    }

    #[test]
    fn detects_divergence_mid_script() {
        // A broken spec that counts *all* pids' bumps diverges once the
        // env also bumps — but with an idle env it agrees; use a
        // deliberately wrong impl instead: skips every third increment.
        let broken = LayerInterface::builder("ctr-broken")
            .prim(PrimSpec::atomic("bump", |ctx, _| {
                let n = ctx.abs.get_or_undef("n").as_int().unwrap_or(0) + 1;
                ctx.abs.set("n", Val::Int(n));
                ctx.emit(EventKind::Prim("bump".into(), vec![]));
                Ok(Val::Int(if n >= 3 { n + 1 } else { n }))
            }))
            .build();
        let contexts = vec![ContextGen::new(vec![Pid(0)]).round_robin()];
        let scripts = vec![vec![("bump".to_owned(), vec![]); 4]];
        let err = check_sequence_refinement(
            &broken,
            &spec_iface(),
            &SimRelation::identity(),
            Pid(0),
            &contexts,
            &scripts,
            100_000,
        )
        .unwrap_err();
        assert!(matches!(err, LayerError::Mismatch { .. }));
    }
}
