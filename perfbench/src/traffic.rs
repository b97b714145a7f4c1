//! Request traffic for certd-sharded: the seeded generator, the
//! closed-loop client, and the record of what was actually sent.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use ccal_certd::proto::{read_msg, write_msg, Addr, Conn, Msg, VERSION};
use ccal_certd::{CertRequest, CertResponse};

use crate::answers::Answers;
use crate::stats::{self, Rng};

/// The request classes of the certd traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// A `use_cache = true` request that the store did not answer: a
    /// first sighting, or a repeat that missed.
    Cold,
    /// A repeat answered from the store or the manifest.
    Hit,
    /// A `use_cache = false` repeat: re-explores over warm state.
    Recert,
}

impl Class {
    /// Lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            Class::Cold => "cold",
            Class::Hit => "hit",
            Class::Recert => "recert",
        }
    }
}

/// One request's inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Key {
    /// Registry stack.
    pub stack: &'static str,
    /// Schedule length.
    pub l: usize,
    /// Contender rounds.
    pub rounds: u64,
    /// Chunk size (0 = whole units).
    pub chunk_cases: usize,
}

impl Key {
    /// The request for this key.
    pub fn request(self, use_cache: bool) -> CertRequest {
        let mut req = CertRequest::new(self.stack);
        req.params.schedule_len = self.l;
        req.params.rounds = self.rounds;
        req.chunk_cases = self.chunk_cases;
        req.use_cache = use_cache;
        req
    }
}

/// One sent request and what came back.
#[derive(Debug, Clone)]
pub struct Record {
    /// The inputs.
    pub key: Key,
    /// Whether the request allowed store answers.
    pub use_cache: bool,
    /// The class the generator meant.
    pub intended: Class,
    /// Completion time, seconds since the timed phase began.
    pub end_s: f64,
    /// Time to the verdict.
    pub ms: f64,
    /// The daemon's answer.
    pub resp: Option<CertResponse>,
    /// Transport error, daemon error or known-answer mismatch.
    pub error: Option<String>,
}

impl Record {
    /// The class the response shows: `use_cache = false` is a re-check,
    /// any unit answered from the store a hit, none a first sighting.
    pub fn observed(&self) -> Class {
        match &self.resp {
            _ if !self.use_cache => Class::Recert,
            Some(r) if r.cache_hits > 0 => Class::Hit,
            _ => Class::Cold,
        }
    }

    /// Cases of units the daemon explored (not answered from the store).
    pub fn explored_cases(&self) -> usize {
        self.resp.as_ref().map_or(0, |r| {
            r.units
                .iter()
                .filter(|u| !u.cache_hit)
                .map(|u| u.cases_checked + u.cases_skipped + u.cases_reduced)
                .sum()
        })
    }
}

/// certd-sharded's re-check kinds, one of each per cycle in a seeded
/// order: whole-unit and chunked `ticket` and `qlock` requests with
/// `use_cache = false`. Ticket kinds outnumber qlock ones so the median
/// lands inside one latency mode rather than between two. Each cycle
/// adds one `use_cache = true` repeat of a seeded kind, which the
/// manifest answers without leasing.
const SHARDED_KINDS: [(&str, usize, usize); 6] = [
    ("ticket", 5, 0),
    ("ticket", 8, 0),
    ("ticket", 6, 16),
    ("ticket", 8, 64),
    ("qlock", 8, 0),
    ("qlock", 8, 16),
];
/// Contender rounds of every certd-sharded request.
const SHARDED_ROUNDS: u64 = 2;

/// A closed-loop client on one long-lived connection: the daemon's client
/// handler answers any number of requests on a connection, so the
/// session connects once rather than once per request, as a service
/// client would. A transport error drops the connection; the next
/// request reconnects.
struct Session {
    addr: Addr,
    conn: Option<Conn>,
}

impl Session {
    /// A session that connects on its first request.
    fn new(addr: &Addr) -> Session {
        Session {
            addr: addr.clone(),
            conn: None,
        }
    }

    fn certify(&mut self, req: &CertRequest) -> Result<CertResponse, String> {
        if self.conn.is_none() {
            let mut conn = Conn::connect(&self.addr).map_err(|e| e.to_string())?;
            let hello = Msg::Hello {
                role: "client".into(),
                version: VERSION,
            };
            write_msg(&mut conn, &hello).map_err(|e| e.to_string())?;
            self.conn = Some(conn);
        }
        let conn = self.conn.as_mut().expect("connected above");
        let reply = write_msg(conn, &Msg::Certify(req.clone())).and_then(|()| read_msg(conn));
        match reply {
            Ok(Msg::Result(resp)) => Ok(resp),
            Ok(Msg::Error { msg }) => Err(format!("daemon error: {msg}")),
            Ok(other) => Err(format!("unexpected reply: {other:?}")),
            Err(e) => {
                self.conn = None;
                Err(e.to_string())
            }
        }
    }

    /// Sends one request and checks the verdict against its known
    /// answer.
    fn send(&mut self, answers: &Answers, key: Key, intended: Class, phase: Instant) -> Record {
        let use_cache = intended != Class::Recert;
        let req = key.request(use_cache);
        let start = Instant::now();
        let result = self.certify(&req);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let end_s = phase.elapsed().as_secs_f64();
        let (resp, error) = match result {
            Ok(resp) => {
                let error = answers
                    .check_response(key.stack, key.l, key.rounds, &resp)
                    .err();
                (Some(resp), error)
            }
            Err(e) => (None, Some(format!("{}: {e}", key.stack))),
        };
        let mut rec = Record {
            key,
            use_cache,
            intended,
            end_s,
            ms,
            resp,
            error,
        };
        // A repeat of a key the store holds must be answered from it.
        if rec.error.is_none() && rec.observed() != intended {
            rec.error = Some(format!(
                "{} L={}: sent as {}, answered as {}",
                key.stack,
                key.l,
                intended.name(),
                rec.observed().name()
            ));
        }
        rec
    }
}

/// Runs one untimed certd-sharded cycle of the re-check kinds (their
/// first sightings), returning its records, then the timed phase for
/// `seconds`.
pub fn run_sharded(
    addr: &Addr,
    answers: &Answers,
    seed: u64,
    seconds: f64,
) -> (Vec<Record>, Vec<Record>, f64) {
    let mut rng = Rng::new(seed, 0);
    let kinds: Vec<Key> = SHARDED_KINDS
        .iter()
        .map(|&(stack, l, chunk_cases)| Key {
            stack,
            l,
            rounds: SHARDED_ROUNDS,
            chunk_cases,
        })
        .collect();
    let mut session = Session::new(addr);
    let warm_phase = Instant::now();
    let warmup = kinds
        .iter()
        .map(|&k| session.send(answers, k, Class::Recert, warm_phase))
        .collect();
    let phase = Instant::now();
    let deadline = Duration::from_secs_f64(seconds);
    let mut records = Vec::new();
    while phase.elapsed() < deadline {
        let mut cycle: Vec<(Key, Class)> = kinds.iter().map(|&k| (k, Class::Recert)).collect();
        cycle.push((kinds[rng.below(kinds.len())], Class::Hit));
        rng.shuffle(&mut cycle);
        for (key, class) in cycle {
            records.push(session.send(answers, key, class, phase));
        }
    }
    (warmup, records, phase.elapsed().as_secs_f64())
}

/// The traffic actually generated: class shares (as sent and as the
/// responses show), distinct keys, requests per stack, and the latency
/// tail's percentile and sample count, as one JSON object.
pub fn describe(workload: &str, seed: u64, records: &[Record]) -> String {
    let n = records.len().max(1) as f64;
    let mut intended: BTreeMap<&str, usize> = BTreeMap::new();
    let mut observed: BTreeMap<&str, usize> = BTreeMap::new();
    let mut per_stack: BTreeMap<&str, usize> = BTreeMap::new();
    let mut keys = BTreeSet::new();
    let mut mismatched = 0;
    for r in records {
        *intended.entry(r.intended.name()).or_default() += 1;
        *observed.entry(r.observed().name()).or_default() += 1;
        *per_stack.entry(r.key.stack).or_default() += 1;
        keys.insert(r.key);
        mismatched += usize::from(r.intended != r.observed());
    }
    let shares = |m: &BTreeMap<&str, usize>| {
        let body: Vec<String> = m
            .iter()
            .map(|(k, v)| format!("\"{k}\": {:.4}", *v as f64 / n))
            .collect();
        format!("{{{}}}", body.join(", "))
    };
    let stacks: Vec<String> = per_stack
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    let lat: Vec<f64> = records.iter().map(|r| r.ms).collect();
    let (pct, _) = stats::tail(&lat);
    let mut windows = vec![
        0usize;
        1 + records
            .iter()
            .map(|r| r.end_s as usize / 5)
            .max()
            .unwrap_or(0)
    ];
    for r in records {
        windows[r.end_s as usize / 5] += 1;
    }
    let windows: Vec<String> = windows.iter().map(|w| w.to_string()).collect();
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"requests\": {}, \
         \"intended_share\": {}, \"observed_share\": {}, \"class_mismatches\": {mismatched}, \
         \"distinct_keys\": {}, \"requests_per_stack\": {{{}}}, \
         \"latency_tail\": {{\"percentile\": {pct}, \"n\": {}}}, \
         \"requests_per_5s\": [{}]}}",
        records.len(),
        shares(&intended),
        shares(&observed),
        keys.len(),
        stacks.join(", "),
        records.len(),
        windows.join(", "),
    );
    out
}
