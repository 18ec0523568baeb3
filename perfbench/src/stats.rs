//! Sample summaries, answer digests, and the result document.

use std::time::Duration;

/// Timings of one kind of operation, in milliseconds.
#[derive(Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64() * 1e3);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The `q`-quantile (`0 ≤ q ≤ 1`), linearly interpolated between
    /// order statistics; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        match v.len() {
            0 => 0.0,
            n => {
                let pos = q * (n - 1) as f64;
                let lo = pos.floor() as usize;
                let hi = pos.ceil() as usize;
                v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
            }
        }
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Arithmetic mean; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.0.iter().sum::<f64>() / self.0.len() as f64
        }
    }
}

/// FNV-1a over the exact answer lines, order-sensitive: two runs agree
/// on the answer iff their digests agree (up to hash collisions).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn line(&mut self, parts: &[&str]) {
        for part in parts {
            for b in part.bytes().chain([0x1f]) {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
            }
        }
        self.0 ^= 0x0a;
        self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// The run's result: metrics for the final JSON line, everything else
/// as readable `name = value unit` lines, and the failure tally.
#[derive(Default)]
pub struct Outcome {
    json: Vec<(String, f64, String)>,
    pub attempted: u64,
    pub failed: u64,
    problems: Vec<String>,
}

impl Outcome {
    /// A metric of the result document, also printed.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str, note: &str) {
        self.show(name, value, unit, note);
        let value = if value.is_finite() { value } else { 0.0 };
        self.json.push((name.to_string(), value, unit.to_string()));
    }

    /// A printed-only figure.
    pub fn show(&self, name: &str, value: f64, unit: &str, note: &str) {
        let note = if note.is_empty() {
            String::new()
        } else {
            format!("  ({note})")
        };
        println!("  {name:<40} {value:>14.4} {unit}{note}");
    }

    /// One attempted operation, failed unless `ok`; `why` says what
    /// went wrong.
    pub fn attempt(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problem(why());
        }
    }

    /// A correctness problem outside the counted operations (a
    /// cross-check or a self-check), which makes the run incorrect.
    pub fn problem(&mut self, why: String) {
        println!("  FAILED: {why}");
        self.problems.push(why);
    }

    /// The result document's metric names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.json.iter().map(|(n, _, _)| n.clone()).collect();
        names.sort();
        names
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The final line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .json
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}
