//! The metric set one run reports, and its JSON rendering.

use std::collections::BTreeMap;

#[derive(Debug, Clone, Default)]
pub struct Metrics {
    values: BTreeMap<String, (f64, &'static str)>,
}

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values.insert(name, (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|v| v.0)
    }

    pub fn extend(&mut self, other: Metrics) {
        self.values.extend(other.values);
    }

    pub fn iter(&self) -> impl Iterator<Item = (&String, &(f64, &'static str))> {
        self.values.iter()
    }

    /// The `metrics` object of the result line: every value with all its
    /// digits.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .values
            .iter()
            .map(|(k, (v, u))| {
                format!(
                    "\"{k}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                    json_num(*v)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Shortest round-tripping decimal; integral values keep a `.0`-free
/// integer form.
pub fn json_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_values_with_units() {
        let mut m = Metrics::default();
        m.set("b", 0.125, "ms");
        m.set("a", 3.0, "count");
        assert_eq!(
            m.to_json(),
            "{\"a\": {\"value\": 3, \"unit\": \"count\"}, \"b\": {\"value\": 0.125, \"unit\": \"ms\"}}"
        );
    }
}
