//! Turning tallies, counts and spans into named metrics, and printing
//! them: a readable report, then one JSON line.

use crate::trace::{self, Span};
use crate::workload::{Client, Counts, Tally};
use pagestore::PAGE_SIZE;
use service::IndexKind;
use std::collections::HashMap;

pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// Metrics in print order.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.0.push(Metric {
            name: name.into(),
            unit,
            value,
        });
    }
}

/// Nearest-rank quantile `q` in [0, 1]; NaN for no samples.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        f64::NAN
    } else {
        num / den
    }
}

/// The query-side end-to-end metrics of one tally.
pub fn query_metrics(m: &mut Metrics, t: &Tally) {
    m.push(
        "query_qps",
        "1/s",
        ratio(t.queries as f64, t.busy.as_secs_f64()),
    );
    m.push("query_p50_us", "us", median(&mut t.query_us.clone()));
    m.push("query_p90_us", "us", quantile(&mut t.query_us.clone(), 0.9));
    for (slot, name) in ["subset", "equality", "superset"].iter().enumerate() {
        m.push(
            format!("{name}_p50_us"),
            "us",
            median(&mut t.pred_us[slot].clone()),
        );
    }
}

/// Reported beside the gated metrics, not gated itself: on a 2-vCPU VM
/// over ext4 its spread across seeds on `ingest_mixed` reached 0.39 of
/// the median, above the largest bound the benchmark may set.
pub fn query_p99_us(t: &Tally) -> f64 {
    quantile(&mut t.query_us.clone(), 0.99)
}

pub fn pages_per_query(c: &Counts) -> f64 {
    ratio(c.query_io.misses() as f64, c.queries as f64)
}

/// Σ disk bytes over the raw bytes of the data the service holds.
pub fn space_amp(c: &Counts, base_raw: u64) -> f64 {
    ratio(c.disk_bytes as f64, (base_raw + c.record_bytes) as f64)
}

/// The ingest metrics of one tally and the counts.
pub fn insert_metrics(m: &mut Metrics, t: &Tally, c: &Counts) {
    let insert_s: f64 = t.insert_us.iter().sum::<f64>() / 1e6;
    m.push("insert_p50_us", "us", median(&mut t.insert_us.clone()));
    m.push(
        "insert_p99_us",
        "us",
        quantile(&mut t.insert_us.clone(), 0.99),
    );
    m.push("insert_rps", "1/s", ratio(t.records as f64, insert_s));
    let written = (c.insert_io.writes + c.persist_io.writes) * PAGE_SIZE as u64
        + c.insert_io.wal_bytes
        + c.persist_io.wal_bytes;
    m.push(
        "write_amp",
        "ratio",
        ratio(written as f64, c.record_bytes as f64),
    );
}

/// Per-layer figures from the spans and counts of a traced run.
pub fn layer_metrics(m: &mut Metrics, d: &Client, spans: &[Span]) {
    let mut by_name: HashMap<&str, Vec<&Span>> = HashMap::new();
    let mut children: HashMap<u32, Vec<&Span>> = HashMap::new();
    for s in spans {
        by_name.entry(s.name).or_default().push(s);
        children.entry(s.parent).or_default().push(s);
    }
    let durs = |name: &str, scale: f64| -> Vec<f64> {
        by_name
            .get(name)
            .map(|v| v.iter().map(|s| s.dur_ns() as f64 / scale).collect())
            .unwrap_or_default()
    };

    // Fan-out self time: the service call minus its critical path, the
    // slowest shard's planning plus evaluation.
    let mut fanout: Vec<f64> = by_name
        .get(trace::QUERY_BATCH)
        .map(|v| v.as_slice())
        .unwrap_or_default()
        .iter()
        .map(|qb| {
            let slowest = children
                .get(&qb.id)
                .map(|v| v.as_slice())
                .unwrap_or_default()
                .iter()
                .map(|shard| {
                    children
                        .get(&shard.id)
                        .map(|v| v.iter().map(|c| c.dur_ns()).sum::<u64>())
                        .unwrap_or(0)
                })
                .max()
                .unwrap_or(0);
            (qb.dur_ns() as f64 - slowest as f64) / 1e3
        })
        .collect();
    m.push("service.fanout_self_us", "us", median(&mut fanout));
    m.push("service.plan_ns", "ns", median(&mut durs(trace::PLAN, 1.0)));

    let evals = |kind: IndexKind| -> usize {
        datagen::QueryKind::ALL
            .iter()
            .map(|&p| by_name.get(trace::eval_name(kind, p)).map_or(0, Vec::len))
            .sum()
    };
    let all_evals: usize = IndexKind::ALL.iter().map(|&k| evals(k)).sum();
    for kind in IndexKind::ALL {
        m.push(
            format!("service.plan_share.{}", kind.name()),
            "ratio",
            ratio(evals(kind) as f64, all_evals as f64),
        );
    }
    m.push(
        "service.planner_regret_pages",
        "pages",
        d.regret_pages.unwrap_or(0.0),
    );
    m.push(
        "service.try_insert_us",
        "us",
        median(&mut durs(trace::TRY_INSERT, 1e3)),
    );
    m.push(
        "service.persist_ms",
        "ms",
        median(&mut durs(trace::PERSIST, 1e6)),
    );
    for kind in IndexKind::ALL {
        for pred in datagen::QueryKind::ALL {
            let name = trace::eval_name(kind, pred);
            let stem = name.trim_end_matches(".eval");
            m.push(
                format!("{stem}.eval_us"),
                "us",
                median(&mut durs(name, 1e3)),
            );
            let spans = by_name.get(name).map(|v| v.as_slice()).unwrap_or_default();
            let pages: u64 = spans.iter().map(|s| s.io.misses()).sum();
            m.push(
                format!("{stem}.pages"),
                "pages",
                ratio(pages as f64, spans.len() as f64),
            );
        }
    }
    m.push(
        "invfile.try_batch_insert_us",
        "us",
        median(&mut durs(trace::IF_INSERT, 1e3)),
    );

    let c = &d.counts;
    let q = c.queries as f64;
    let io = &c.query_io;
    m.push("query_p99_us", "us", query_p99_us(&d.plain));
    m.push("pages_per_query", "pages", pages_per_query(c));
    m.push(
        "pagestore.hits_per_query",
        "pages",
        ratio(io.hits as f64, q),
    );
    m.push(
        "pagestore.seq_misses_per_query",
        "pages",
        ratio(io.seq_misses as f64, q),
    );
    m.push(
        "pagestore.random_misses_per_query",
        "pages",
        ratio(io.random_misses as f64, q),
    );
    m.push(
        "pagestore.hit_ratio",
        "ratio",
        ratio(io.hits as f64, (io.hits + io.misses()) as f64),
    );
    let (hit_ns, miss_ns) = d.pool_probe_ns.unwrap_or((f64::NAN, f64::NAN));
    m.push("pagestore.hit_ns", "ns", hit_ns);
    m.push("pagestore.miss_ns", "ns", miss_ns);
    let inserts = c.inserts as f64;
    m.push(
        "pagestore.writeback_pages_per_insert",
        "pages",
        ratio(c.insert_io.writes as f64, inserts),
    );
    m.push(
        "pagestore.fsyncs_per_insert",
        "count",
        ratio(c.insert_io.fsyncs as f64, inserts),
    );
    m.push(
        "pagestore.wal_bytes_per_record",
        "B",
        ratio(c.insert_io.wal_bytes as f64, c.records as f64),
    );
    m.push(
        "pagestore.synced_pages_per_persist",
        "pages",
        ratio(c.persist_io.synced_pages as f64, c.persists as f64),
    );
    m.push(
        "codec.decode_ns_per_posting",
        "ns",
        d.decode_ns.unwrap_or(f64::NAN),
    );
    insert_metrics(m, &d.plain, c);
    let plain = median(&mut d.plain.query_us.clone());
    let traced = median(&mut d.traced_tally.query_us.clone());
    m.push(
        "trace.overhead_pct",
        "%",
        (ratio(traced, plain) - 1.0) * 100.0,
    );
    m.push("trace.spans", "count", spans.len() as f64);
}

/// `VmHWM` of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Print the readable report (`# `-prefixed lines); a metric with no
/// samples reads `n/a`.
pub fn print_readable(m: &Metrics) {
    for metric in &m.0 {
        if metric.value.is_finite() {
            println!(
                "# {:<44} {:>16.4} {}",
                metric.name, metric.value, metric.unit
            );
        } else {
            println!("# {:<44} {:>16} {}", metric.name, "n/a", metric.unit);
        }
    }
}

/// The result line. A metric without samples is reported as 0.
pub fn json_line(correct: bool, attempted: u64, failed: u64, m: &Metrics) -> String {
    let body: Vec<String> =
        m.0.iter()
            .map(|metric| {
                let v = if metric.value.is_finite() {
                    metric.value
                } else {
                    0.0
                };
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    metric.name, v, metric.unit
                )
            })
            .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
