//! `ccal-perfbench` — the wall-clock benchmark of the certification
//! engine and `ccal-certd`.
//!
//! ```text
//! ccal-perfbench --workload W --seed N --seconds S --trace 0|1
//!                --certd PATH --out DIR --metrics NAME:UNIT,...
//! ccal-perfbench probe-setup
//! ```
//!
//! Workloads: `engine-contended`, `certd-sharded` (see README.md).
//! `--metrics` lists the metrics to report: the end-to-end ones of
//! `BENCHMARK.json` with `--trace 0`, the per-layer ones with `--trace 1`,
//! which is a separate traced run. The last line of standard output is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! Exit code 0 means every verdict matched its known answer, 1 a mismatch
//! or error, 2 a usage or environment problem. `probe-setup` is the child the
//! engine workload times its set-up with.

mod answers;
mod engine;
mod replay;
mod service;
mod stats;
mod trace;
mod traffic;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use answers::Answers;
use engine::{Call, Fixtures, Outcome};
use stats::{median, ratio, sum, Rng};
use trace::Tracer;
use traffic::{Class, Record};

/// certd set-ups timed per run; the median is reported.
const SETUP_REPS: usize = 41;
/// engine-contended set-ups timed per run. Each is a process start of
/// about 2 ms, so many fit, which steadies the median.
const PROBE_REPS: usize = 101;
/// Rounds engine-contended completes even on a host too slow to finish
/// them in `--seconds`: 3 rounds are 42 calls, enough for the tail to stay
/// at p75 rather than drop to p50.
const MIN_ROUNDS: usize = 3;
/// Pings timed for `certd.proto.ping_ms`.
const PINGS: usize = 21;

const COUNTER_NOTE: &str = "counters: prefix::*_total deltas are read only around one \
    in-process call at a time; certd UnitReport step fields are not read (they are \
    process-global deltas of the daemon; the shard runs as its own ccal-certd shard \
    process); no figure gates on step counts";

struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    certd: PathBuf,
    out: PathBuf,
    /// `(name, unit)` of every metric to report, in order.
    metrics: Vec<(String, String)>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let value = |name: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == name)
            .ok_or_else(|| format!("{name} is required"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{name} needs a value"))
    };
    let workload = value("--workload")?.to_owned();
    if !["engine-contended", "certd-sharded"].contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    Ok(Opts {
        workload,
        seed: value("--seed")?.parse().map_err(|_| "bad --seed")?,
        seconds: value("--seconds")?.parse().map_err(|_| "bad --seconds")?,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            _ => return Err("--trace takes 0 or 1".into()),
        },
        certd: PathBuf::from(value("--certd")?),
        out: PathBuf::from(value("--out")?),
        metrics: value("--metrics")?
            .split(',')
            .map(|m| {
                m.split_once(':')
                    .map(|(n, u)| (n.to_owned(), u.to_owned()))
                    .ok_or_else(|| format!("bad --metrics entry `{m}`"))
            })
            .collect::<Result<_, _>>()?,
    })
}

/// One run's findings.
#[derive(Default)]
struct Report {
    attempted: usize,
    errors: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
    notes: Vec<String>,
    spans: Option<String>,
    traffic: Option<String>,
}

impl Report {
    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Sets `setup_s` to the median of the timed set-ups, and notes
    /// their spread.
    fn set_setup(&mut self, setups: &[f64]) {
        let lo = setups.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = setups.iter().copied().fold(0.0, f64::max);
        self.set("setup_s", median(setups));
        self.notes.push(format!(
            "setup_s: {} set-ups, min {:.3} ms median {:.3} ms max {:.3} ms",
            setups.len(),
            lo * 1e3,
            median(setups) * 1e3,
            hi * 1e3
        ));
    }

    /// Prints the human-readable summary, writes the records, and prints
    /// the result line last, with every metric `--metrics` names. A
    /// per-layer metric the workload did not set reads 0 (its layer is
    /// not exercised); an unset end-to-end metric is a bug.
    fn finish(mut self, o: &Opts) -> ExitCode {
        let failed = self.errors.len();
        if o.trace {
            self.set("error_share", ratio(failed as f64, self.attempted as f64));
        }
        let tag = format!("{}-seed{}-trace{}", o.workload, o.seed, u8::from(o.trace));
        let _ = std::fs::create_dir_all(&o.out);
        if let Some(spans) = &self.spans {
            let path = o.out.join(format!("spans-{tag}.jsonl"));
            let _ = std::fs::write(&path, spans);
            self.notes
                .push(format!("spans written to {}", path.display()));
        }
        if let Some(traffic) = &self.traffic {
            let path = o.out.join(format!("traffic-{tag}.json"));
            let _ = std::fs::write(&path, traffic);
            println!("traffic: {traffic}");
        }
        for note in &self.notes {
            println!("{note}");
        }
        for e in self.errors.iter().take(10) {
            println!("FAILED: {e}");
        }
        println!(
            "attempted {} failed {failed} error_share {}",
            self.attempted,
            ratio(failed as f64, self.attempted as f64)
        );
        if let Some(name) = self
            .metrics
            .keys()
            .find(|k| !o.metrics.iter().any(|(n, _)| n == *k))
        {
            panic!("metric `{name}` is measured but not listed in BENCHMARK.json");
        }
        let mut body = Vec::new();
        for (name, unit) in &o.metrics {
            let v = match self.metrics.get(name.as_str()) {
                Some(v) => *v,
                None if o.trace => 0.0,
                None => panic!("end-to-end metric `{name}` was not measured"),
            };
            let v = if v.is_finite() { v } else { 0.0 };
            println!("{name} = {v} {unit}");
            body.push(format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            ));
        }
        let correct = failed == 0 && self.attempted > 0;
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            body.join(", ")
        );
        if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        }
    }
}

/// Seconds from spawning `probe-setup` until it reports ready: process
/// start, the M1 front end and the interfaces.
fn probe_setup_s() -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let start = Instant::now();
    let mut child = Command::new(exe)
        .arg("probe-setup")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("probe-setup: {e}"))?;
    let mut line = String::new();
    let read = BufReader::new(child.stdout.take().expect("piped")).read_line(&mut line);
    let secs = start.elapsed().as_secs_f64();
    let status = child.wait().map_err(|e| e.to_string())?;
    match read {
        Ok(_) if line.trim() == "ready" && status.success() => Ok(secs),
        _ => Err(format!("probe-setup failed: {status}")),
    }
}

fn is_contended(serial: bool) -> impl Fn(Call) -> bool {
    move |c| matches!(c, Call::Contended { serial: s, .. } if s == serial)
}

fn run_round(
    fx: &Fixtures,
    calls: &[Call],
    answers: &Answers,
    round: usize,
    tr: &mut Tracer,
) -> Vec<Outcome> {
    calls
        .iter()
        .enumerate()
        .map(|(i, &c)| engine::run(fx, c, answers, &format!("r{round}.{i}.{}", c.label()), tr))
        .collect()
}

fn engine_workload(o: &Opts, answers: &Answers) -> Result<Report, String> {
    let mut rep = Report::default();
    let mut rng = Rng::new(o.seed, 0);
    let mut off = Tracer::new(false);
    rep.notes.push(COUNTER_NOTE.to_owned());
    if !o.trace {
        let setups = (0..PROBE_REPS)
            .map(|_| probe_setup_s())
            .collect::<Result<Vec<_>, _>>()?;
        let fx = Fixtures::build(&mut off);
        let warm = engine::run(
            &fx,
            Call::Contended {
                l: 6,
                serial: false,
            },
            answers,
            "warmup",
            &mut off,
        );
        rep.errors.extend(warm.error);
        let ticks = service::cpu_ticks();
        let start = Instant::now();
        let mut rounds: Vec<Vec<Outcome>> = Vec::new();
        let mut round_peaks = Vec::new();
        while rounds.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < o.seconds {
            let calls = engine::round(&mut rng);
            service::reset_peak_rss();
            rounds.push(run_round(&fx, &calls, answers, rounds.len(), &mut off));
            round_peaks.push(service::peak_rss_mb("/proc/self/status"));
        }
        let wall = start.elapsed().as_secs_f64();
        rep.notes.push(service::steal_note(ticks));
        let all: Vec<&Outcome> = rounds.iter().flatten().collect();
        rep.attempted = all.len();
        rep.errors
            .extend(all.iter().filter_map(|o| o.error.clone()));
        let mut by_call: BTreeMap<String, (Call, f64, Vec<f64>)> = BTreeMap::new();
        for o in &all {
            let entry =
                by_call
                    .entry(o.call.label())
                    .or_insert((o.call, o.cases as f64, Vec::new()));
            entry.2.push(o.ms);
        }
        // The median round: each obligation at its median time over the
        // rounds, as often as it runs in a round. Every figure but set-up
        // and memory is read from it, so a burst of host noise on one
        // call does not swing them; the loop between calls does no work.
        let median_round: Vec<(Call, f64, f64)> = by_call
            .values()
            .flat_map(|(call, cases, ms)| {
                std::iter::repeat_n((*call, *cases, median(ms)), ms.len() / rounds.len())
            })
            .collect();
        let rate = |serial: bool| {
            let (cases, ms) = median_round
                .iter()
                .filter(|(call, ..)| is_contended(serial)(*call))
                .fold((0.0, 0.0), |(c, t), (_, cases, ms)| (c + cases, t + ms));
            ratio(cases, ms / 1e3)
        };
        let lat: Vec<f64> = median_round.iter().map(|(_, _, ms)| *ms).collect();
        let pct = stats::tail_percentile(all.len());
        rep.set_setup(&setups);
        rep.set("cases_per_s", rate(false));
        rep.set("serial_cases_per_s", rate(true));
        rep.set("verdicts_per_s", ratio(lat.len() as f64, sum(&lat) / 1e3));
        rep.set("latency_p50_ms", median(&lat));
        rep.set("latency_tail_ms", stats::percentile(&lat, pct));
        rep.set("peak_rss_mb", median(&round_peaks));
        for (label, (_, _, ms)) in &by_call {
            let lo = ms.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = ms.iter().copied().fold(0.0, f64::max);
            rep.notes.push(format!(
                "call {label:<24} n {:>2} median {:>10.3} ms min {lo:>10.3} max {hi:>10.3}",
                ms.len(),
                median(ms)
            ));
        }
        rep.notes.push(format!(
            "rounds {} calls {} wall {wall:.3} s; latency_tail_ms is p{pct} of the median \
             round, for n={} calls",
            rounds.len(),
            all.len(),
            all.len()
        ));
        return Ok(rep);
    }
    // Traced run: one round untraced, the same round traced, the same
    // round untraced again; the overhead is the traced pass minus the
    // mean untraced pass.
    let mut tr = Tracer::new(true);
    let fx = Fixtures::build(&mut tr);
    let calls = engine::round(&mut rng);
    let timed = |tr: &mut Tracer, round: usize| {
        let start = Instant::now();
        let outs = run_round(&fx, &calls, answers, round, tr);
        (outs, start.elapsed().as_secs_f64() * 1e3)
    };
    let (first, untraced_a) = timed(&mut off, 0);
    let (outs, traced) = timed(&mut tr, 1);
    let (last, untraced_b) = timed(&mut off, 2);
    for pass in [&first, &outs, &last] {
        rep.attempted += pass.len();
        rep.errors
            .extend(pass.iter().filter_map(|o| o.error.clone()));
    }
    let untraced = (untraced_a + untraced_b) / 2.0;
    let contended: Vec<&Outcome> = outs
        .iter()
        .filter(|o| matches!(o.call, Call::Contended { .. }))
        .collect();
    let total = |f: &dyn Fn(&Outcome) -> u64| contended.iter().map(|o| f(o) as f64).sum::<f64>();
    let steps_of = |serial: bool| {
        outs.iter()
            .filter(|o| is_contended(serial)(o.call))
            .map(|o| o.counters.steps as f64)
            .sum::<f64>()
    };
    let cases = contended.iter().map(|o| o.cases as f64).sum::<f64>();
    let reduced = contended.iter().map(|o| o.reduced as f64).sum::<f64>();
    let check_default = tr.total_ms("explore.check_fun.default");
    let check_serial = tr.total_ms("explore.check_fun.serial");
    let shared = total(&|o| o.counters.shared);
    let deep = total(&|o| o.counters.deep);
    let conv = total(&|o| o.counters.conv_hits);
    rep.set("clightx.front_end_ms", tr.total_ms("clightx.front_end"));
    rep.set("contexts.gen_ms", tr.total_ms("contexts.gen"));
    rep.set("contexts.por_reduced_share", ratio(reduced, cases));
    rep.set("explore.check_ms.default", check_default);
    rep.set("explore.check_ms.serial", check_serial);
    rep.set("explore.atom_steps", total(&|o| o.counters.steps));
    rep.set("explore.prim_steps", total(&|o| o.counters.prim_steps));
    rep.set(
        "explore.ns_per_atom_step.default",
        ratio(check_default * 1e6, steps_of(false)),
    );
    rep.set(
        "explore.ns_per_atom_step.serial",
        ratio(check_serial * 1e6, steps_of(true)),
    );
    rep.set("explore.conv_hits", conv);
    rep.set(
        "explore.conv_evictions",
        total(&|o| o.counters.conv_evictions),
    );
    rep.set("prefix.memo_shared", shared);
    rep.set("prefix.snapshot_resumes", deep);
    rep.set("prefix.reuse_per_case", ratio(shared + deep + conv, cases));
    for (metric, span) in [
        ("verifier.live_ms", "verifier.live"),
        ("verifier.race_ms", "verifier.race"),
        ("verifier.linz_ms", "verifier.linz"),
        ("verifier.seqref_ms", "verifier.seqref"),
    ] {
        rep.set(metric, tr.total_ms(span));
    }
    for o in &outs {
        rep.notes.push(format!(
            "call {:<24} {:>10.3} ms cases {:>6} atom-steps {:>7} ns/step {:>9.0}",
            o.call.label(),
            o.ms,
            o.cases,
            o.counters.steps,
            ratio(o.ms * 1e6, o.counters.steps as f64)
        ));
    }
    finish_trace(&mut rep, &tr, traced, untraced);
    Ok(rep)
}

/// Records the tracing overhead, the self-time table and the spans.
fn finish_trace(rep: &mut Report, tr: &Tracer, traced_ms: f64, untraced_ms: f64) {
    rep.set("trace.overhead_ms", traced_ms - untraced_ms);
    rep.set("trace.untraced_ms", untraced_ms);
    let span_cost_ms = Tracer::span_cost_ns(100_000) * tr.spans().len() as f64 / 1e6;
    rep.set("trace.span_cost_ms", span_cost_ms);
    let mut table = String::from("self time per span (ms):");
    for (name, ms) in &tr.self_ms() {
        let _ = write!(table, "\n  {name:<32} {ms:>12.3}");
    }
    rep.notes.push(table);
    rep.notes.push(format!(
        "tracing overhead: traced {traced_ms:.3} ms - untraced {untraced_ms:.3} ms = {:.3} ms; \
         {} spans at the measured recording cost = {span_cost_ms:.3} ms",
        traced_ms - untraced_ms,
        tr.spans().len()
    ));
    rep.spans = Some(tr.to_jsonl());
}

/// Wall times of `n` calls of `f`, in milliseconds, keeping the calls
/// that succeeded.
fn times_ms(n: usize, mut f: impl FnMut() -> bool) -> Vec<f64> {
    (0..n)
        .filter_map(|_| {
            let start = Instant::now();
            f().then(|| start.elapsed().as_secs_f64() * 1e3)
        })
        .collect()
}

/// Sums of the `name` spans per request id.
fn per_id_ms(tr: &Tracer, name: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for s in tr.spans().iter().filter(|s| s.name == name) {
        *out.entry(s.id.clone()).or_insert(0.0) += s.dur_ns() as f64 / 1e6;
    }
    out
}

fn store_stats(dir: &Path) -> (f64, f64) {
    let files: Vec<_> = std::fs::read_dir(dir)
        .map(|d| {
            d.flatten()
                .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
                .collect()
        })
        .unwrap_or_default();
    let bytes = files
        .iter()
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len() as f64)
        .sum();
    (files.len() as f64, bytes)
}

fn certd_workload(o: &Opts, answers: &Answers) -> Result<Report, String> {
    let mut rep = Report::default();
    rep.notes.push(COUNTER_NOTE.to_owned());
    let dir = o.out.join(format!(
        "{}-seed{}-{}",
        o.workload,
        o.seed,
        std::process::id()
    ));
    let result = certd_phases(o, answers, &dir, &mut rep);
    let _ = std::fs::remove_dir_all(&dir);
    result.map(|()| rep)
}

fn certd_phases(o: &Opts, answers: &Answers, dir: &Path, rep: &mut Report) -> Result<(), String> {
    let (setups, svc) = service::start_timed(&o.certd, dir, SETUP_REPS)?;
    let ticks = service::cpu_ticks();
    let (warmup, records, wall) = traffic::run_sharded(&svc.addr, answers, o.seed, o.seconds);
    rep.notes.push(service::steal_note(ticks));
    let pings = times_ms(PINGS, || ccal_certd::client::ping(&svc.addr).is_ok());
    let rss = svc.peak_rss_mb();
    let store_dir = svc.store.clone();
    svc.stop();

    rep.attempted = records.len() + warmup.len();
    rep.errors.extend(
        warmup
            .iter()
            .chain(&records)
            .filter_map(|r| r.error.clone()),
    );
    if !warmup.iter().any(|r| {
        r.resp
            .as_ref()
            .is_some_and(|x| x.units.iter().any(|u| u.remote_chunks > 0))
    }) {
        rep.errors
            .push("certd-sharded: the shard took no lease during warm-up".into());
    }
    rep.traffic = Some(traffic::describe(&o.workload, o.seed, &records));
    let lat: Vec<f64> = records.iter().map(|r| r.ms).collect();
    let explored: f64 = records.iter().map(|r| r.explored_cases() as f64).sum();
    let classes: Vec<(&'static str, f64, usize)> =
        [(Class::Hit, "hit_p50_ms"), (Class::Recert, "recert_p50_ms")]
            .into_iter()
            .map(|(class, metric)| {
                let ms: Vec<f64> = records
                    .iter()
                    .filter(|r| r.observed() == class)
                    .map(|r| r.ms)
                    .collect();
                (metric, median(&ms), ms.len())
            })
            .collect();
    if !o.trace {
        let (pct, tail) = stats::tail(&lat);
        rep.set_setup(&setups);
        rep.set("cases_per_s", explored / wall);
        rep.set("serial_cases_per_s", explored / wall);
        rep.set("verdicts_per_s", records.len() as f64 / wall);
        rep.set("latency_p50_ms", median(&lat));
        rep.set("latency_tail_ms", tail);
        rep.set("peak_rss_mb", rss);
        rep.notes.push(format!(
            "requests {} wall {wall:.3} s; latency_tail_ms is p{pct} of n={}; \
             serial_cases_per_s equals cases_per_s here: certd explores with workers = 1",
            records.len(),
            records.len()
        ));
        for (metric, p50, n) in &classes {
            rep.notes.push(format!("{metric} = {p50} (n={n})"));
        }
        return Ok(());
    }

    // Per-layer numbers from the daemon's responses.
    for (metric, p50, _) in &classes {
        rep.set(metric, *p50);
    }
    let units: Vec<_> = records
        .iter()
        .filter_map(|r| r.resp.as_ref())
        .flat_map(|r| &r.units)
        .collect();
    let explored_units: Vec<_> = units.iter().filter(|u| !u.cache_hit).collect();
    let cached: Vec<&Record> = records.iter().filter(|r| r.use_cache).collect();
    let cached_units: f64 = cached
        .iter()
        .filter_map(|r| r.resp.as_ref())
        .map(|r| r.units.len() as f64)
        .sum();
    let cache_hits: f64 = cached
        .iter()
        .filter_map(|r| r.resp.as_ref())
        .map(|r| r.cache_hits as f64)
        .sum();
    let manifest_hits = cached
        .iter()
        .filter(|r| r.resp.as_ref().is_some_and(|x| x.manifest_hit))
        .count();
    let chunks: f64 = explored_units.iter().map(|u| u.chunks as f64).sum();
    let remote: f64 = explored_units.iter().map(|u| u.remote_chunks as f64).sum();
    rep.set(
        "certd.warm.family_hits",
        ratio(
            explored_units
                .iter()
                .map(|u| u.shared_family_hits as f64)
                .sum(),
            explored_units.len() as f64,
        ),
    );
    rep.set(
        "certd.warm.memo_entries",
        units
            .iter()
            .map(|u| u.memo_entries as f64)
            .fold(0.0, f64::max),
    );
    rep.set(
        "certd.warm.snapshot_entries",
        units
            .iter()
            .map(|u| u.snapshot_entries as f64)
            .fold(0.0, f64::max),
    );
    rep.set("certd.store.hit_share", ratio(cache_hits, cached_units));
    rep.set(
        "certd.store.manifest_hit_share",
        ratio(manifest_hits as f64, cached.len() as f64),
    );
    rep.set("certd.lease.chunks", chunks);
    rep.set("certd.lease.remote_share", ratio(remote, chunks));
    rep.set(
        "certd.lease.retries",
        explored_units.iter().map(|u| u.retries as f64).sum(),
    );
    let ping_ms = median(&pings);
    rep.set("certd.proto.ping_ms", ping_ms);

    // The run's store as the daemon left it.
    let (nrec, bytes) = store_stats(&store_dir);
    rep.set("certd.store.records", nrec);
    rep.set("certd.store.bytes", bytes);
    let loads = times_ms(SETUP_REPS, || {
        ccal_certd::store::CertStore::at_dir(store_dir.clone()).is_ok()
    });
    rep.set("certd.store.load_ms", median(&loads));

    // The replay: after the warm-up, one request of each kind and class
    // in the daemon's order (requests repeat with identical inputs).
    let mut seen = std::collections::BTreeSet::new();
    let sample: Vec<Record> = records
        .iter()
        .filter(|r| seen.insert((r.key, r.use_cache)))
        .cloned()
        .collect();
    let mut tr = Tracer::new(true);
    let mut off = Tracer::new(false);
    for (name, src) in [
        ("M1", ccal_objects::ticket::M1_SOURCE),
        ("M2", ccal_objects::ticket::M2_SOURCE),
        ("Mql", ccal_objects::qlock::QLOCK_SOURCE),
    ] {
        let ok = tr.span("clightx.front_end", name, |_| {
            ccal_clightx::clightx_module(name, src).is_ok()
        });
        if !ok {
            rep.errors.push(format!("{name}: front end failed"));
        }
    }
    let pass = |tr: &mut Tracer, tag: &str| {
        let start = Instant::now();
        let out = replay::replay(&warmup, &sample, &dir.join(tag), tr);
        (out, start.elapsed().as_secs_f64() * 1e3)
    };
    // An untimed first pass settles the allocator and page cache so the
    // timed passes compare like with like.
    let (warm, _) = pass(&mut off, "replay-warm");
    let (plain_a, untraced_a) = pass(&mut off, "replay-a");
    let (traced_out, traced) = pass(&mut tr, "replay-b");
    let (plain_b, untraced_b) = pass(&mut off, "replay-c");
    rep.attempted += 4 * sample.len();
    for out in [&warm, &plain_a, &traced_out, &plain_b] {
        rep.errors.extend(out.errors.iter().cloned());
    }
    let run_unit = per_id_ms(&tr, "certd.registry.run_unit");
    let us = |name: &str| {
        tr.durations_ms(name)
            .iter()
            .map(|ms| ms * 1e3)
            .collect::<Vec<_>>()
    };
    rep.set("clightx.front_end_ms", tr.total_ms("clightx.front_end"));
    rep.set(
        "certd.registry.decompose_ms",
        median(&tr.durations_ms("certd.registry.decompose")),
    );
    rep.set(
        "certd.registry.run_unit_ms",
        median(&run_unit.values().copied().collect::<Vec<_>>()),
    );
    rep.set(
        "certd.store.put_ms",
        median(&tr.durations_ms("certd.store.put")),
    );
    rep.set(
        "certd.store.get_ms",
        median(&tr.durations_ms("certd.store.get")),
    );
    rep.set("certd.proto.encode_us", median(&us("certd.proto.encode")));
    rep.set("certd.proto.decode_us", median(&us("certd.proto.decode")));
    rep.set(
        "certd.proto.frame_bytes",
        ratio(
            sum(&traced_out.frame_bytes),
            traced_out.frame_bytes.len() as f64,
        ),
    );
    // Lease wait: each re-check's latency minus the in-process
    // run_unit time of the same units minus a ping round trip.
    let rechecks = || records.iter().filter(|r| !r.use_cache);
    let by_key: BTreeMap<_, f64> = sample
        .iter()
        .enumerate()
        .filter(|(_, r)| !r.use_cache)
        .map(|(i, r)| {
            (
                r.key,
                run_unit.get(&format!("req{i}")).copied().unwrap_or(0.0),
            )
        })
        .collect();
    let waits: Vec<f64> = rechecks()
        .map(|r| r.ms - by_key[&r.key] - ping_ms)
        .collect();
    rep.set("certd.lease.wait_ms", median(&waits));
    for (key, ms) in &by_key {
        let lat: Vec<f64> = rechecks().filter(|r| r.key == *key).map(|r| r.ms).collect();
        rep.notes.push(format!(
            "{} L={} chunk={}: latency p50 {:.3} ms, run_unit {ms:.3} ms, lease wait {:.3} ms",
            key.stack,
            key.l,
            key.chunk_cases,
            median(&lat),
            median(&lat) - ms - ping_ms
        ));
    }
    finish_trace(rep, &tr, traced, (untraced_a + untraced_b) / 2.0);
    Ok(())
}

fn main() -> ExitCode {
    if let Some((name, _)) = std::env::vars().find(|(k, _)| k.starts_with("CCAL_")) {
        eprintln!(
            "ccal-perfbench: refusing to measure with {name} set; CCAL_* variables switch \
             engine paths, so runs would not measure the same program"
        );
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("probe-setup") {
        Fixtures::build(&mut Tracer::new(false));
        println!("ready");
        return ExitCode::SUCCESS;
    }
    let opts = match parse_opts(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("ccal-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let answers = Answers::load();
    println!(
        "workload {} seed {} seconds {} trace {} nproc {}",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let report = if opts.workload == "engine-contended" {
        engine_workload(&opts, &answers)
    } else {
        certd_workload(&opts, &answers)
    };
    match report {
        Ok(rep) => rep.finish(&opts),
        Err(e) => {
            eprintln!("ccal-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
