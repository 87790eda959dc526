//! The benchmark's vocabulary: workload and metric names with their units,
//! and the order statistics every timing is reported with.
//!
//! `BENCHMARK.json` at the repository root repeats these names for the
//! driver; a test keeps the two in step.

/// Which way is better, as `BENCHMARK.json` spells it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Class {
    /// Seen by a user of the system; may worsen by `bound` (a share of the
    /// parent's median) before it counts as a regression.
    EndToEnd { bound: f64 },
    /// A single layer's time, size or ratio: informational, no bound.
    Layer,
    /// A deterministic operation count: must repeat exactly for a seed.
    Exact,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub class: Class,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec { name, unit, better, class: Class::EndToEnd { bound } }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec { name, unit, better, class: Class::Layer }
}

const fn exact(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec { name, unit, better: Better::Lower, class: Class::Exact }
}

pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "broadcast_fanin",
        "8 streams, 8 queries, library path: codec and features do most of the work, so a front-end change shows here and a catalogue change must not",
    ),
    (
        "catalogue_1k",
        "same streams against 1024 queries with near-miss decoys: sketch fold, index probe and store upkeep dominate, the mirror image of broadcast_fanin",
    ),
    (
        "subscription_churn",
        "catalogue_1k with one subscribe and one unsubscribe after every epoch: catalogue writes beside reads, so a probe gain paid for by dearer subscription shows",
    ),
    (
        "serve_live",
        "the vdsms serve daemon over a unix socket, closed then open loop: the only workload with wire framing, chunk reassembly, queues and the client on the path",
    ),
];

use Better::{Higher, Lower};

pub const END_TO_END: [MetricSpec; 6] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ingest_kf_per_s", "kf/s", Higher, 0.25),
    e2e("cpu_us_per_kf", "us", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.20),
    e2e("subscribe_ms_p50", "ms", Lower, 0.25),
    e2e("detect_latency_ms_p50", "ms", Lower, 0.25),
];

pub const PER_LAYER: [MetricSpec; 45] = [
    layer("codec.decode_ns_per_kf", "ns", Lower),
    layer("codec.decode_mb_per_s", "MB/s", Higher),
    layer("codec.bytes_per_kf", "B", Lower),
    layer("features.fingerprint_ns_per_kf", "ns", Lower),
    layer("features.frontend_ns_per_kf", "ns", Lower),
    layer("sketch.fold_ns_per_window", "ns", Lower),
    layer("sketch.query_build_us", "us", Lower),
    layer("core.probe_ns_per_window", "ns", Lower),
    exact("core.probe_row_searches_per_window", "count"),
    exact("core.probe_hits_per_window", "count"),
    layer("core.detector_ns_per_kf", "ns", Lower),
    layer("core.store_ns_per_window", "ns", Lower),
    layer("core.fleet_ns_per_kf", "ns", Lower),
    layer("core.fleet_overhead_ns_per_kf", "ns", Lower),
    layer("core.fleet_sharded2_ns_per_kf", "ns", Lower),
    exact("core.sig_encodes_per_window", "count"),
    exact("core.sig_ors_per_window", "count"),
    exact("core.sig_compares_per_window", "count"),
    exact("core.lemma2_prunes_per_window", "count"),
    exact("core.length_expiries_per_window", "count"),
    exact("core.live_signatures_avg", "count"),
    exact("core.live_signatures_peak", "count"),
    exact("core.detections", "count"),
    layer("core.subscribe_us_p50", "us", Lower),
    layer("core.subscribe_us_p95", "us", Lower),
    layer("core.unsubscribe_us_p50", "us", Lower),
    layer("core.catalogue_build_s", "s", Lower),
    layer("core.hq_index_heap_mb", "MB", Lower),
    layer("serve.chunk_ingest_ns_per_kf", "ns", Lower),
    layer("serve.wire_encode_ns_per_chunk", "ns", Lower),
    layer("serve.wire_parse_ns_per_chunk", "ns", Lower),
    layer("serve.rtt_ms_p50", "ms", Lower),
    layer("serve.attach_ms_p50", "ms", Lower),
    layer("serve.end_stream_ms_p50", "ms", Lower),
    layer("serve.unsubscribe_ms_p50", "ms", Lower),
    layer("serve.detect_latency_ms_p95", "ms", Lower),
    layer("serve.sender_late_ms_p95", "ms", Lower),
    layer("serve.daemon_overhead_ratio", "ratio", Lower),
    layer("serve.handoff_us_per_chunk", "us", Lower),
    layer("serve.lagged_total", "count", Lower),
    layer("serve.frames_dropped", "count", Lower),
    layer("serve.resyncs", "count", Lower),
    layer("workload.generate_s", "s", Lower),
    layer("trace.overhead_ratio", "ratio", Lower),
    layer("trace.budget_residual_ratio", "ratio", Lower),
];

pub fn spec(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().chain(&PER_LAYER).find(|m| m.name == name)
}

/// Named values of one run, in reporting order.
#[derive(Debug, Default, Clone)]
pub struct Values(pub Vec<(&'static str, f64)>);

impl Values {
    /// Record `name`; the name must be in the tables above.
    pub fn set(&mut self, name: &str, value: f64) {
        let spec = spec(name).unwrap_or_else(|| panic!("unknown metric {name}"));
        match self.0.iter_mut().find(|(n, _)| *n == spec.name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((spec.name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// The nearest rank of the `p`-quantile among `n` samples, 1-based (the
/// epsilon keeps 0.9 x 100 = 90.00000000000001 at rank 90).
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The `p`-quantile (0 < p <= 1) of `samples` by nearest rank.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), p) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// The highest percentile `n` samples support: the guide's rule is that at
/// least ten samples lie beyond a reported percentile. `None` below 20
/// samples, where not even the median has ten on either side.
pub fn highest_percentile(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.95, 0.9, 0.75, 0.5].into_iter().find(|&p| n >= 20 && n - rank(n, p) >= 10)
}

/// The `wanted` tail percentile, lowered to the highest one the sample
/// count supports (so a short run reports, say, its p90 under a p95 name
/// instead of a number two samples decide).
pub fn tail(samples: &[f64], wanted: f64) -> f64 {
    let p = highest_percentile(samples.len()).map_or(0.5, |h| h.min(wanted));
    percentile(samples, p)
}

/// Spread of repeated runs: the distance between the first and third
/// quartile as a share of the median (`statistics.quantiles(v, n=4)`,
/// exclusive method, as the driver computes it).
pub fn quartile_spread(values: &[f64]) -> f64 {
    assert!(values.len() >= 2, "spread needs two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quantile = |q: f64| {
        let pos = q * (v.len() + 1) as f64;
        let lo = (pos.floor() as usize).clamp(1, v.len() - 1);
        v[lo - 1] + (pos - lo as f64) * (v[lo] - v[lo - 1])
    };
    (quantile(0.75) - quantile(0.25)) / quantile(0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn ten_samples_lie_beyond_the_reported_percentile() {
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(20), Some(0.5));
        assert_eq!(highest_percentile(39), Some(0.5));
        assert_eq!(highest_percentile(40), Some(0.75));
        assert_eq!(highest_percentile(100), Some(0.9));
        assert_eq!(highest_percentile(199), Some(0.9));
        assert_eq!(highest_percentile(200), Some(0.95));
        assert_eq!(highest_percentile(1000), Some(0.99));
        assert_eq!(highest_percentile(10_000), Some(0.999));
        for n in 20..3000 {
            let p = highest_percentile(n).unwrap();
            let v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            assert!(n as f64 - percentile(&v, p) >= 10.0, "n = {n}, p = {p}");
        }
        // 100 samples support p90, so a p95 request reads the 90th sample.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v, 0.95), 90.0);
        let v: Vec<f64> = (1..=400).map(f64::from).collect();
        assert_eq!(tail(&v, 0.95), 380.0);
    }

    #[test]
    fn spread_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 11, 13], n=4) == [10.0, 11.0, 13.0]
        assert!((quartile_spread(&[13.0, 10.0, 11.0]) - 3.0 / 11.0).abs() < 1e-12);
    }

    /// `BENCHMARK.json` is what the driver reads; the tables above are what
    /// the program prints. They must say the same.
    #[test]
    fn benchmark_json_repeats_these_tables() {
        use crate::sut::Json;
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let str_of = |v: &Json, key: &str| v.get(key).and_then(Json::as_str).unwrap().to_string();
        let listed = |key: &str| json.get(key).and_then(Json::as_arr).unwrap().to_vec();

        let workloads: Vec<(String, String)> =
            listed("workloads").iter().map(|w| (str_of(w, "name"), str_of(w, "why"))).collect();
        let ours: Vec<(String, String)> =
            WORKLOADS.iter().map(|(n, w)| (n.to_string(), w.to_string())).collect();
        assert_eq!(workloads, ours);

        for (key, table) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let theirs = listed(key);
            assert_eq!(theirs.len(), table.len(), "{key}");
            for (t, m) in theirs.iter().zip(table) {
                assert_eq!(str_of(t, "name"), m.name);
                assert_eq!(str_of(t, "unit"), m.unit, "{}", m.name);
                assert_eq!(str_of(t, "better"), m.better.name(), "{}", m.name);
                match m.class {
                    Class::EndToEnd { bound } => {
                        assert_eq!(t.get("bound").and_then(Json::as_f64), Some(bound), "{}", m.name)
                    }
                    _ => assert!(
                        t.get("bound").is_none(),
                        "{}: per-layer metrics have no bound",
                        m.name
                    ),
                }
            }
        }
        assert_eq!(json.get("run_seconds").and_then(Json::as_f64), Some(crate::DEFAULT_SECONDS));
        let paths: Vec<&str> = json
            .get("paths")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter_map(Json::as_str)
            .collect();
        assert_eq!(paths, ["benchmark"]);
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, why) in WORKLOADS {
            assert!(ok(name), "{name}");
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}: why is one short line");
            assert!(seen.insert(name), "{name} used twice");
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(ok(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}: unit {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} used twice", m.name);
            if let Class::EndToEnd { bound } = m.class {
                assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
            }
        }
    }
}
