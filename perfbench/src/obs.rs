//! Totals of the program's own `oic-obs` counters and histograms, read
//! in-process from `metrics_snapshot()` or from a server's
//! `/v1/metrics` document (both render the same JSON).

use std::collections::BTreeMap;

use oic_engine::JsonValue;

/// Counter values and histogram `(count, sum)` pairs by metric name.
#[derive(Debug, Clone, Default)]
pub struct ObsTotals {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, (u64, u64)>,
}

impl ObsTotals {
    /// This process's current totals.
    pub fn local() -> Self {
        let doc = JsonValue::parse(&oic_obs::metrics_snapshot().to_json())
            .expect("the metrics snapshot renders valid JSON");
        Self::from_json(&doc)
    }

    /// Totals from a snapshot document (`{"metrics": {name: {...}}}`).
    pub fn from_json(doc: &JsonValue) -> Self {
        let mut totals = Self::default();
        let entries = doc
            .get("metrics")
            .and_then(JsonValue::as_object)
            .unwrap_or(&[]);
        let int = |entry: &JsonValue, key: &str| {
            entry.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0) as u64
        };
        for (name, entry) in entries {
            match entry.get("type").and_then(JsonValue::as_str) {
                Some("counter") => {
                    totals.counters.insert(name.clone(), int(entry, "value"));
                }
                Some("histogram") => {
                    totals
                        .histograms
                        .insert(name.clone(), (int(entry, "count"), int(entry, "sum")));
                }
                _ => {}
            }
        }
        totals
    }

    /// What accrued between `earlier` and `self`.
    pub fn since(&self, earlier: &Self) -> Self {
        Self {
            counters: self
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v - earlier.counter(k)))
                .collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, (c, s))| {
                    let (c0, s0) = earlier.histograms.get(k).copied().unwrap_or((0, 0));
                    (k.clone(), (c - c0, s - s0))
                })
                .collect(),
        }
    }

    /// A counter's value (0 when never registered).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A histogram's sample count.
    pub fn count(&self, name: &str) -> u64 {
        self.histograms.get(name).map_or(0, |h| h.0)
    }

    /// A histogram's sample sum.
    pub fn sum(&self, name: &str) -> u64 {
        self.histograms.get(name).map_or(0, |h| h.1)
    }

    /// Sum of the sums of every histogram whose name starts with
    /// `prefix`.
    pub fn sum_prefixed(&self, prefix: &str) -> u64 {
        self.histograms
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, h)| h.1)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_counters_and_histograms_and_subtracts() {
        let doc = |solves: u64, count: u64, sum: u64| {
            JsonValue::parse(&format!(
                r#"{{"schema": 1, "metrics": {{
                    "lp.solves": {{"unit": "solves", "type": "counter", "value": {solves}}},
                    "mpc.step_ns": {{"unit": "ns", "type": "histogram", "count": {count}, "sum": {sum}, "min": 1, "max": 9, "buckets": []}},
                    "engine.workers": {{"unit": "threads", "type": "gauge", "value": 2}}}}}}"#
            ))
            .unwrap()
        };
        let before = ObsTotals::from_json(&doc(10, 2, 100));
        let after = ObsTotals::from_json(&doc(25, 5, 400));
        let delta = after.since(&before);
        assert_eq!(delta.counter("lp.solves"), 15);
        assert_eq!(delta.count("mpc.step_ns"), 3);
        assert_eq!(delta.sum("mpc.step_ns"), 300);
        assert_eq!(delta.sum_prefixed("mpc."), 300);
        assert_eq!(delta.counter("engine.workers"), 0);
        assert_eq!(delta.counter("missing"), 0);
    }
}
