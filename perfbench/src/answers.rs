//! The hand-written known answers in `expected.txt`, and the checks
//! that compare the program's verdicts against them.

use std::collections::HashMap;

use ccal_certd::CertResponse;

/// Every known answer the generators can need.
#[derive(Debug, Default)]
pub struct Answers {
    /// Cases a certifying (stack, L, rounds) discharges: checked +
    /// skipped + reduced, summed over units.
    certd: HashMap<(String, usize, u64), usize>,
    contended: HashMap<usize, usize>,
    verifier: HashMap<String, usize>,
}

fn field<T: std::str::FromStr>(it: &mut std::str::SplitWhitespace<'_>, line: &str) -> T {
    it.next()
        .and_then(|w| w.parse().ok())
        .unwrap_or_else(|| panic!("expected.txt: malformed line `{line}`"))
}

impl Answers {
    /// Parses `expected.txt`, compiled into the binary.
    pub fn load() -> Answers {
        let mut a = Answers::default();
        for line in include_str!("../expected.txt").lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut it = line.split_whitespace();
            match it.next() {
                Some("certd") => {
                    let stack: String = field(&mut it, line);
                    let l: usize = field(&mut it, line);
                    let rounds: u64 = field(&mut it, line);
                    let verdict: String = field(&mut it, line);
                    if verdict != "certified" {
                        panic!("expected.txt: unknown verdict in `{line}`");
                    }
                    a.certd.insert((stack, l, rounds), field(&mut it, line));
                }
                Some("contended") => {
                    let l = field(&mut it, line);
                    a.contended.insert(l, field(&mut it, line));
                }
                Some("verifier") => {
                    let check = field(&mut it, line);
                    a.verifier.insert(check, field(&mut it, line));
                }
                _ => panic!("expected.txt: unknown record `{line}`"),
            }
        }
        a
    }

    /// Cases the contended obligation at schedule length `l` discharges.
    pub fn contended(&self, l: usize) -> usize {
        self.contended[&l]
    }

    /// Cases the verifier `check` discharges.
    pub fn verifier(&self, check: &str) -> usize {
        self.verifier[check]
    }

    /// Checks one certd response against its known answer; `Err` names
    /// the mismatch.
    pub fn check_response(
        &self,
        stack: &str,
        l: usize,
        rounds: u64,
        resp: &CertResponse,
    ) -> Result<(), String> {
        let key = (stack.to_owned(), l, rounds);
        let want = self
            .certd
            .get(&key)
            .ok_or_else(|| format!("no known answer for {key:?}"))?;
        let got: usize = resp
            .units
            .iter()
            .map(|u| u.cases_checked + u.cases_skipped + u.cases_reduced)
            .sum();
        if !resp.certified || resp.failed_unit.is_some() {
            return Err(format!("{key:?}: expected certified, got a failure"));
        }
        if got != *want {
            return Err(format!("{key:?}: expected {want} cases, got {got}"));
        }
        Ok(())
    }
}
