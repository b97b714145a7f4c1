//! Experiments B5 and B5d: lower-run sharing — the schedule grid
//! organized as a prefix trie so each lower-machine run is executed once
//! per *distinct consumed schedule prefix* instead of once per grid cell,
//! with a forked machine snapshot at every environment query so even runs
//! that never share a whole consumed prefix share their common schedule
//! digits (one `ccal_core::prefix::SnapshotTrie` per check; see
//! DESIGN.md). B5 runs the client-layer grid, B5d the interpreted ticket
//! spin loop that whole-outcome reuse alone cannot reach.
//!
//! Run with `cargo bench -p ccal-bench --bench prefix_sharing`; pass
//! `-- --quick` (or set `CCAL_BENCH_QUICK=1`) for a fast smoke run.
//! Works with or without the `criterion` feature — it uses the engine's
//! atom-step counters plus plain wall-clock timing either way.
//!
//! This binary owns its process, so the process-global step counters are
//! exact; it doubles as the acceptance gate for sharing: at `L = 5` the
//! atom-steps with sharing on must be at most 0.3 of the sharing-off
//! steps on the client grid (B5) and at most 0.45 on the interpreted
//! ticket stack (B5d). Both gates are counter-based, not
//! wall-clock-based, so they hold on single-core and noisy hosts.
//!
//! It also emits `BENCH_5.json` at the repo root — machine-readable
//! atom-step ratios for B5/B5d and grid accounting for B2/B2w — so the
//! perf trajectory is tracked across changes.

use std::fmt::Write as _;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick")
        || std::env::var_os("CCAL_BENCH_QUICK").is_some();
    let lens: &[usize] = if quick { &[3, 5] } else { &[3, 4, 5] };

    let rows: Vec<_> = lens
        .iter()
        .map(|&l| ccal_bench::scaling::prefix_row(l))
        .collect();
    println!("{}", ccal_bench::scaling::render_prefix_rows(&rows));
    let deep_rows: Vec<_> = lens
        .iter()
        .map(|&l| ccal_bench::scaling::deep_row(l))
        .collect();
    println!("{}", ccal_bench::scaling::render_deep_rows(&deep_rows));

    let gate = rows
        .iter()
        .find(|r| r.schedule_len == 5)
        .expect("L=5 row present");
    assert!(
        gate.step_ratio() <= 0.3,
        "B5 acceptance: sharing must cut the atom-steps to <= 0.3 of the \
         unshared run at L=5, got {} of {} ({:.2})",
        gate.steps_share,
        gate.steps_full,
        gate.step_ratio()
    );
    println!(
        "B5 acceptance: L=5 share/full atom-step ratio {:.3} <= 0.3 (share {} vs full {})",
        gate.step_ratio(),
        gate.steps_share,
        gate.steps_full
    );
    let dgate = deep_rows
        .iter()
        .find(|r| r.schedule_len == 5)
        .expect("L=5 deep row present");
    assert!(
        dgate.step_ratio() <= 0.45,
        "B5d acceptance: sharing must cut the interpreted-ticket atom-steps \
         to <= 0.45 of the unshared run at L=5, got {} of {} ({:.2})",
        dgate.steps_share,
        dgate.steps_full,
        dgate.step_ratio()
    );
    println!(
        "B5d acceptance: L=5 share/full atom-step ratio {:.3} <= 0.45 \
         (share {} vs full {}, {} snapshot resumes)",
        dgate.step_ratio(),
        dgate.steps_share,
        dgate.steps_full,
        dgate.deep_hits
    );

    let workers = ccal_core::par::default_workers();
    let b2 = ccal_bench::scaling::por_row_tuned(5, workers);
    let b2w = ccal_bench::scaling::por_widened_row_tuned(5, workers);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_5.json");
    std::fs::write(path, render_json(&rows, &deep_rows, &b2, &b2w)).expect("write BENCH_5.json");
    println!("wrote {path}");
}

/// Renders the machine-readable benchmark record. Hand-rolled JSON — the
/// workspace is offline and the fields are flat numbers.
fn render_json(
    rows: &[ccal_bench::scaling::PrefixRow],
    deep_rows: &[ccal_bench::scaling::DeepRow],
    b2: &ccal_bench::scaling::PorRow,
    b2w: &ccal_bench::scaling::PorRow,
) -> String {
    // Recorded so step-ratio trajectories can be compared across hosts:
    // the worker-scaling rows depend on the machine's parallelism.
    let hw = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    // The share-on arm keeps the `steps_deep`/`deep_*` keys it had when
    // it was the all-layers-on arm, so earlier records compare directly.
    let mut out = format!("{{\n  \"hardware_threads\": {hw},\n  \"b5\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"len\": {}, \"grid\": {}, \"cases\": {}, \"steps_full\": {}, \
             \"steps_deep\": {}, \"deep_ratio\": {:.4}}}",
            r.schedule_len,
            r.grid,
            r.cases,
            r.steps_full,
            r.steps_share,
            r.step_ratio(),
        );
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n  \"b5d\": [\n");
    for (i, r) in deep_rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"len\": {}, \"grid\": {}, \"cases\": {}, \"steps_full\": {}, \
             \"steps_deep\": {}, \"shared_hits\": {}, \"deep_hits\": {}, \
             \"deep_over_full\": {:.4}}}",
            r.schedule_len,
            r.grid,
            r.cases,
            r.steps_full,
            r.steps_share,
            r.shared_hits,
            r.deep_hits,
            r.step_ratio(),
        );
        out.push_str(if i + 1 < deep_rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    for (key, row) in [("b2", b2), ("b2w", b2w)] {
        let _ = write!(
            out,
            "  \"{key}\": {{\"len\": {}, \"grid\": {}, \"explored\": {}, \"skipped\": {}, \
             \"reduced\": {}, \"shrink\": {:.4}}}",
            row.schedule_len,
            row.grid,
            row.explored,
            row.skipped,
            row.reduced,
            row.shrink(),
        );
        out.push_str(if key == "b2" { ",\n" } else { "\n" });
    }
    out.push_str("}\n");
    out
}
