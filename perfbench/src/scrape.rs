//! Registry snapshots in the Prometheus text exposition the servers ship
//! in their wire `Metrics` frame (and the in-process registry renders),
//! differenced across a run.

use std::collections::HashMap;

/// Label set of one series, in exposition order.
type Labels = Vec<(String, String)>;

/// One parsed exposition: `(name, labels) → value`. Histogram `_bucket`
/// series are held per bucket (not cumulative), keyed by their upper
/// bound, because the exposition lists only non-empty buckets and a
/// cumulative series cannot be differenced bucket by bucket.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    series: HashMap<(String, Labels), f64>,
    buckets: HashMap<(String, Labels), Vec<(f64, f64)>>,
}

impl Snapshot {
    /// Parses the exposition subset the registry emits: comment lines are
    /// skipped, every other line is `name{k="v",...} value`.
    pub fn parse(text: &str) -> Snapshot {
        let mut snap = Snapshot::default();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let Some((head, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let Ok(value) = value.parse::<f64>() else {
                continue;
            };
            let (name, mut labels) = match head.split_once('{') {
                Some((name, rest)) => (name, parse_labels(rest.trim_end_matches('}'))),
                None => (head, Vec::new()),
            };
            let le = labels.iter().position(|(k, _)| k == "le");
            match (name.strip_suffix("_bucket"), le) {
                (Some(hist), Some(i)) => {
                    let (_, le) = labels.remove(i);
                    let le = if le == "+Inf" {
                        f64::INFINITY
                    } else {
                        match le.parse::<f64>() {
                            Ok(x) => x,
                            Err(_) => continue,
                        }
                    };
                    snap.buckets
                        .entry((hist.to_string(), labels))
                        .or_default()
                        .push((le, value));
                }
                _ => {
                    snap.series.insert((name.to_string(), labels), value);
                }
            }
        }
        for buckets in snap.buckets.values_mut() {
            buckets.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("bucket bound"));
            let mut prev = 0.0;
            for b in buckets.iter_mut() {
                let cum = b.1;
                b.1 = cum - prev;
                prev = cum;
            }
        }
        snap
    }

    /// `self − before`, series by series and bucket by bucket (anything
    /// absent before counts from 0).
    pub fn minus(&self, before: &Snapshot) -> Snapshot {
        let series = self
            .series
            .iter()
            .map(|(k, v)| (k.clone(), v - before.series.get(k).copied().unwrap_or(0.0)))
            .collect();
        let buckets = self
            .buckets
            .iter()
            .map(|(k, now)| {
                let old = before.buckets.get(k);
                let diff = now
                    .iter()
                    .map(|&(le, c)| {
                        let was = old
                            .and_then(|o| o.iter().find(|b| b.0 == le))
                            .map(|b| b.1)
                            .unwrap_or(0.0);
                        (le, c - was)
                    })
                    .collect();
                (k.clone(), diff)
            })
            .collect();
        Snapshot { series, buckets }
    }

    /// Sum of every series called `name` whose labels include all of
    /// `want`.
    pub fn sum(&self, name: &str, want: &[(&str, &str)]) -> f64 {
        self.series
            .iter()
            .filter(|((n, labels), _)| n == name && has_labels(labels, want))
            .map(|(_, v)| v)
            .sum()
    }

    /// Quantile `q` of the histogram `name` over every series matching
    /// `want`: the upper bound of the bucket holding the `q`-th
    /// observation. 0 when the histogram is empty.
    pub fn histogram_quantile(&self, name: &str, want: &[(&str, &str)], q: f64) -> f64 {
        let mut merged: Vec<(f64, f64)> = Vec::new();
        for ((n, labels), buckets) in &self.buckets {
            if n != name || !has_labels(labels, want) {
                continue;
            }
            for &(le, c) in buckets {
                match merged.iter_mut().find(|b| b.0 == le) {
                    Some(slot) => slot.1 += c,
                    None => merged.push((le, c)),
                }
            }
        }
        merged.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("bucket bound"));
        let total: f64 = merged.iter().map(|b| b.1).sum();
        if total <= 0.0 {
            return 0.0;
        }
        let rank = (q * total).ceil().max(1.0);
        let mut cum = 0.0;
        let mut finite_max = 0.0;
        for &(le, c) in &merged {
            cum += c;
            if le.is_finite() {
                finite_max = le;
            }
            if cum >= rank {
                return if le.is_finite() { le } else { finite_max };
            }
        }
        finite_max
    }
}

fn has_labels(labels: &Labels, want: &[(&str, &str)]) -> bool {
    want.iter()
        .all(|(k, v)| labels.iter().any(|(lk, lv)| lk == k && lv == v))
}

fn parse_labels(body: &str) -> Labels {
    let mut out = Vec::new();
    let mut rest = body;
    while let Some((key, tail)) = rest.split_once("=\"") {
        let mut value = String::new();
        let mut chars = tail.char_indices();
        let mut end = tail.len();
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => {
                    if let Some((_, esc)) = chars.next() {
                        value.push(if esc == 'n' { '\n' } else { esc });
                    }
                }
                '"' => {
                    end = i + 1;
                    break;
                }
                c => value.push(c),
            }
        }
        out.push((key.trim_start_matches(',').trim().to_string(), value));
        rest = &tail[end..];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_diffs_and_reads_histograms() {
        let before = Snapshot::parse(
            "# HELP x\nengine_served_total{engine=\"0\"} 5\n\
             engine_service_seconds_bucket{engine=\"0\",rate=\"1.0000\",le=\"0.001\"} 1\n\
             engine_service_seconds_bucket{engine=\"0\",rate=\"1.0000\",le=\"+Inf\"} 1\n",
        );
        let after = Snapshot::parse(
            "engine_served_total{engine=\"0\"} 15\nengine_served_total{engine=\"1\"} 2\n\
             engine_service_seconds_bucket{engine=\"0\",rate=\"1.0000\",le=\"0.001\"} 3\n\
             engine_service_seconds_bucket{engine=\"0\",rate=\"1.0000\",le=\"0.002\"} 11\n\
             engine_service_seconds_bucket{engine=\"0\",rate=\"1.0000\",le=\"+Inf\"} 11\n",
        );
        let d = after.minus(&before);
        assert_eq!(d.sum("engine_served_total", &[]), 12.0);
        assert_eq!(d.sum("engine_served_total", &[("engine", "1")]), 2.0);
        let want = [("rate", "1.0000")];
        assert_eq!(
            d.histogram_quantile("engine_service_seconds", &want, 0.1),
            0.001
        );
        assert_eq!(
            d.histogram_quantile("engine_service_seconds", &want, 0.5),
            0.002
        );
    }
}
