//! The traced replay of certd requests in the benchmark's own process.
//!
//! The daemon's internals cannot be seen from outside it, so the traced
//! run repeats each replayed request's layer calls here, on the same
//! inputs and in the daemon's order: the manifest and per-unit store
//! lookups, `registry::stack_units`, `registry::run_unit` per explored
//! unit (no warm state), the store writes, and the frame codec on the
//! daemon's actual response. The replay store is a fresh directory that
//! the daemon's untimed warm-up requests fill first, untraced, as they
//! filled the daemon's store; each replayed request must then take the
//! path the daemon took (manifest or units), or the replay counts an
//! error.

use std::path::Path;

use ccal_certd::proto::{read_msg, write_msg, Msg};
use ccal_certd::registry;
use ccal_certd::store::{CertStore, StoredManifest, StoredUnit};

use crate::trace::Tracer;
use crate::traffic::Record;

/// Totals of one replay pass.
#[derive(Debug, Default)]
pub struct Replayed {
    /// Encoded frame sizes of the replayed responses, in bytes.
    pub frame_bytes: Vec<f64>,
    /// Layer calls that returned an error.
    pub errors: Vec<String>,
}

/// Replays `warmup` untraced, then `records` in order, against a fresh
/// store in `dir`.
pub fn replay(warmup: &[Record], records: &[Record], dir: &Path, tr: &mut Tracer) -> Replayed {
    let _ = std::fs::remove_dir_all(dir);
    let store = CertStore::at_dir(dir.to_path_buf()).expect("replay store");
    let mut out = Replayed::default();
    let mut off = Tracer::new(false);
    for (i, rec) in warmup.iter().enumerate() {
        if let Err(e) = answer(rec, &store, &format!("warm{i}"), &mut off) {
            out.errors.push(format!("warm{i}: {e}"));
        }
    }
    for (i, rec) in records.iter().enumerate() {
        let id = format!("req{i}");
        tr.span("certd.request", &id, |tr| {
            if let Err(e) = answer(rec, &store, &id, tr) {
                out.errors.push(format!("{id}: {e}"));
            }
            if let Some(resp) = &rec.resp {
                let msg = Msg::Result(resp.clone());
                let mut frame = Vec::new();
                tr.span("certd.proto.encode", &id, |_| write_msg(&mut frame, &msg))
                    .expect("encode into memory");
                out.frame_bytes.push(frame.len() as f64);
                match tr.span("certd.proto.decode", &id, |_| {
                    read_msg(&mut frame.as_slice())
                }) {
                    Ok(back) if back == msg => {}
                    Ok(_) => out.errors.push(format!("{id}: frame did not round-trip")),
                    Err(e) => out.errors.push(format!("{id}: decode: {e}")),
                }
            }
        });
    }
    let _ = std::fs::remove_dir_all(dir);
    out
}

/// One request's flow, as the daemon runs it: the manifest fast path,
/// then per unit a store lookup or an exploration and a store write,
/// stopping at the first failing unit; a clean full run earns a
/// manifest. Fails if the manifest answers where the daemon's did not,
/// or the other way round.
fn answer(rec: &Record, store: &CertStore, id: &str, tr: &mut Tracer) -> Result<(), String> {
    let manifest_hit = replay_flow(rec, store, id, tr)?;
    match &rec.resp {
        Some(resp) if resp.manifest_hit != manifest_hit => Err(format!(
            "{} L={}: the daemon's manifest hit was {}, the replay's {manifest_hit}",
            rec.key.stack, rec.key.l, resp.manifest_hit
        )),
        _ => Ok(()),
    }
}

/// The flow of [`answer`]; returns whether the manifest answered.
fn replay_flow(rec: &Record, store: &CertStore, id: &str, tr: &mut Tracer) -> Result<bool, String> {
    let req = rec.key.request(rec.use_cache);
    if req.use_cache {
        let mkey = registry::manifest_key(&req.stack, &req.params);
        if let Some(m) = tr.span("certd.store.get_manifest", id, |_| store.get_manifest(mkey)) {
            let clean = m.units.iter().all(|(_, fp)| {
                tr.span("certd.store.get", id, |_| store.get(*fp))
                    .is_some_and(|u| u.failure.is_none())
            });
            if clean {
                return Ok(true);
            }
        }
    }
    let units = tr.span("certd.registry.decompose", id, |_| {
        registry::stack_units(&req.stack, &req.params)
    })?;
    for def in &units {
        if req.use_cache {
            if let Some(stored) = tr.span("certd.store.get", id, |_| store.get(def.fingerprint)) {
                if stored.failure.is_some() {
                    return Ok(false);
                }
                continue;
            }
        }
        let outcome = tr.span("certd.registry.run_unit", id, |_| {
            registry::run_unit(&req.stack, &def.name, &req.params, None, None)
        })?;
        let failed = outcome.failure.is_some();
        tr.span("certd.store.put", id, |_| {
            store.put(
                def.fingerprint,
                StoredUnit {
                    unit: def.name.clone(),
                    cases_checked: outcome.cases_checked,
                    cases_skipped: outcome.cases_skipped,
                    cases_reduced: outcome.cases_reduced,
                    failure: outcome.failure,
                },
            );
        });
        if failed {
            return Ok(false);
        }
    }
    tr.span("certd.store.put_manifest", id, |_| {
        store.put_manifest(
            registry::manifest_key(&req.stack, &req.params),
            StoredManifest {
                stack: req.stack.clone(),
                units: units
                    .iter()
                    .map(|d| (d.name.clone(), d.fingerprint))
                    .collect(),
            },
        );
    });
    Ok(false)
}
