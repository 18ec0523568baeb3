//! The traced pass: a recorder for the spans and counters the engines
//! already emit, read back as per-request deltas.

use std::collections::BTreeMap;
use std::sync::Mutex;

use cqshap::obs::{phase, Recorder};

use crate::stats::{Outcome, Samples};

/// Span totals by `(phase, parent)` and counter totals by key.
#[derive(Default, Clone)]
pub struct Window {
    spans_ns: BTreeMap<(&'static str, Option<&'static str>), u64>,
    counters: BTreeMap<&'static str, u64>,
}

impl Window {
    /// What happened between `before` and `self`.
    fn since(&self, before: &Window) -> Window {
        let mut out = self.clone();
        for (key, ns) in &before.spans_ns {
            if let Some(v) = out.spans_ns.get_mut(key) {
                *v -= ns;
            }
        }
        for (key, n) in &before.counters {
            if let Some(v) = out.counters.get_mut(key) {
                *v -= n;
            }
        }
        out.spans_ns.retain(|_, v| *v > 0);
        out.counters.retain(|_, v| *v > 0);
        out
    }

    /// Total nanoseconds in `phase`, under any parent.
    pub fn span_ns(&self, phase: &str) -> u64 {
        self.spans_ns
            .iter()
            .filter(|((p, _), _)| *p == phase)
            .map(|(_, ns)| ns)
            .sum()
    }

    /// Nanoseconds of `phase` not covered by its direct child spans on
    /// the same thread. Children that ran on worker threads have no
    /// parent and so count as unattributed here.
    pub fn unattributed_ns(&self, phase: &str) -> i64 {
        let children: u64 = self
            .spans_ns
            .iter()
            .filter(|((_, parent), _)| *parent == Some(phase))
            .map(|(_, ns)| ns)
            .sum();
        self.span_ns(phase) as i64 - children as i64
    }

    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }
}

struct TraceSink(Mutex<Window>);

impl TraceSink {
    fn lock(&self) -> std::sync::MutexGuard<'_, Window> {
        // Every update leaves the window consistent, so a guard
        // poisoned by a panicking engine thread is still usable.
        self.0.lock().unwrap_or_else(|p| p.into_inner())
    }
}

impl Recorder for TraceSink {
    fn span(&self, phase: &'static str, parent: Option<&'static str>, start_ns: u64, end_ns: u64) {
        *self.lock().spans_ns.entry((phase, parent)).or_default() +=
            end_ns.saturating_sub(start_ns);
    }

    fn counter(&self, key: &'static str, delta: u64) {
        *self.lock().counters.entry(key).or_default() += delta;
    }

    fn histogram(&self, _key: &'static str, _value: u64) {}

    fn event(&self, _kind: &'static str, _detail: &str) {}
}

static SINK: TraceSink = TraceSink(Mutex::new(Window {
    spans_ns: BTreeMap::new(),
    counters: BTreeMap::new(),
}));

/// Installs the recorder for the rest of the process: from here on,
/// every engine call is traced.
pub fn install() {
    cqshap::obs::install(&SINK).expect("perfbench installs the only recorder");
}

/// Runs `f` and returns what it recorded.
pub fn record<T>(f: impl FnOnce() -> T) -> (T, Window) {
    let before = SINK.lock().clone();
    let out = f();
    let after = SINK.lock().clone();
    (out, after.since(&before))
}

/// The phases whose totals the benchmark reports, top phases first.
pub const PHASES: [&str; 12] = [
    phase::PREPARE,
    phase::PREPARE_COMPILE,
    phase::COMPILE,
    phase::UNION_COMPILE,
    phase::UNION_TERMS,
    phase::RECOUNT,
    phase::UPDATE,
    phase::REPORT,
    phase::REPORT_TIERED,
    phase::ANYTIME,
    phase::ANYTIME_BOOTSTRAP,
    phase::ANYTIME_REFINE,
];

/// Phases whose time the benchmark splits into named children plus an
/// unattributed remainder.
pub const TOP_PHASES: [&str; 5] = [
    phase::PREPARE_COMPILE,
    phase::UPDATE,
    phase::REPORT,
    phase::REPORT_TIERED,
    phase::ANYTIME,
];

/// The exact counters, as `(metric name, recorder key)`.
pub const COUNTERS: [(&str, &str); 8] = [
    ("compiled.class_memo.hit", phase::CTR_CLASS_MEMO_HIT),
    ("compiled.class_memo.miss", phase::CTR_CLASS_MEMO_MISS),
    ("compiled.recount_cache.hit", phase::CTR_RECOUNT_CACHE_HIT),
    ("compiled.recount_cache.miss", phase::CTR_RECOUNT_CACHE_MISS),
    ("poly.mul.schoolbook", phase::CTR_POLY_SCHOOLBOOK),
    ("poly.mul.karatsuba", phase::CTR_POLY_KARATSUBA),
    ("poly.mul.ntt", phase::CTR_POLY_NTT),
    ("poly.ntt.prime_pool.draws", phase::CTR_NTT_PRIME_DRAWS),
];

/// Reports the traced pass. `reps[r][j]` is what part `j` of repeat `r`
/// recorded, where one repeat holds `requests` requests; `untraced` and
/// `traced` are per-request wall times without and with the recorder.
///
/// Counters of identical work must repeat exactly, so every repeat is
/// compared with the first, part by part: a difference is a benchmark
/// bug, not noise.
pub fn summarize(
    out: &mut Outcome,
    reps: &[Vec<Window>],
    requests: usize,
    untraced: &Samples,
    traced: &Samples,
) {
    let Some((first, rest)) = reps.split_first() else {
        out.problem("benchmark bug: no traced repeats".into());
        return;
    };
    for rep in rest {
        for (j, (w, w0)) in rep.iter().zip(first).enumerate() {
            if w.counters != w0.counters {
                out.problem(format!(
                    "benchmark bug: exact counters of request part {j} drifted between repeats: {:?} vs {:?}",
                    w0.counters, w.counters
                ));
            }
        }
    }
    let mut mean = Window::default();
    for w in reps.iter().flatten() {
        for (key, ns) in &w.spans_ns {
            *mean.spans_ns.entry(*key).or_default() += ns;
        }
    }
    for w in first {
        for (key, n) in &w.counters {
            *mean.counters.entry(key).or_default() += n;
        }
    }
    report(
        out,
        &mean,
        (reps.len() * requests) as f64,
        requests as f64,
        traced.mean(),
    );
    out.metric(
        "obs.overhead_pct",
        (traced.median() / untraced.median() - 1.0) * 100.0,
        "%",
        &format!(
            "traced vs untraced request, medians of {} and {}",
            traced.len(),
            untraced.len()
        ),
    );
}

/// Reports the traced requests per request: phase totals and their
/// share of the request's wall time, unattributed remainders, exact
/// counters and the two cache hit ratios with their bases. `w` holds
/// the spans of `span_requests` requests and the counters of
/// `count_requests` of them.
fn report(out: &mut Outcome, w: &Window, span_requests: f64, count_requests: f64, request_ms: f64) {
    let share = |ns: f64| ns / 1e6 / request_ms * 100.0;
    for p in PHASES {
        let ns = w.span_ns(p) as f64 / span_requests;
        out.show(&format!("span.{p}_ms"), ns / 1e6, "ms", "per request");
        out.metric(
            &format!("span.{p}_pct"),
            share(ns),
            "%",
            "of the traced request",
        );
    }
    for p in TOP_PHASES {
        let ns = w.unattributed_ns(p) as f64 / span_requests;
        out.show(
            &format!("unattributed.{p}_ms"),
            ns / 1e6,
            "ms",
            "parent minus children",
        );
        out.metric(
            &format!("unattributed.{p}_pct"),
            share(ns),
            "%",
            "of the traced request",
        );
    }
    for (name, key) in COUNTERS {
        out.metric(
            name,
            w.counter(key) as f64 / count_requests,
            "count",
            "per request",
        );
    }
    for (name, hit, miss) in [
        (
            "class_memo_hit_ratio",
            phase::CTR_CLASS_MEMO_HIT,
            phase::CTR_CLASS_MEMO_MISS,
        ),
        (
            "recount_cache_hit_ratio",
            phase::CTR_RECOUNT_CACHE_HIT,
            phase::CTR_RECOUNT_CACHE_MISS,
        ),
    ] {
        let (h, m) = (w.counter(hit), w.counter(miss));
        let ratio = if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64 * 100.0
        };
        out.metric(
            &format!("{name}_pct"),
            ratio,
            "%",
            &format!("{h} hits of {} lookups", h + m),
        );
    }
}
