//! The metric catalogue in `spec.json`: every metric's name and unit, and
//! which mode reports it.

use std::collections::BTreeMap;

use tytan_trace::json::{self, Value};

/// `spec.json`, compiled in.
pub const SPEC: &str = include_str!("../spec.json");

/// Which run reports a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `--trace 0`: the end-to-end metrics.
    EndToEnd,
    /// `--trace 1`: the per-layer metrics.
    PerLayer,
}

impl Mode {
    fn key(self) -> &'static str {
        match self {
            Mode::EndToEnd => "end_to_end",
            Mode::PerLayer => "per_layer",
        }
    }
}

/// A metric's name and unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
}

fn parse() -> Result<Value, String> {
    json::parse(SPEC).map_err(|e| format!("spec.json: {e:?}"))
}

/// The metrics `mode` reports, in catalogue order.
pub fn metrics(mode: Mode) -> Result<Vec<Metric>, String> {
    let spec = parse()?;
    let list = spec
        .get(mode.key())
        .and_then(Value::as_array)
        .ok_or_else(|| format!("spec.json: no {} list", mode.key()))?;
    list.iter()
        .map(|m| {
            let field = |key: &str| {
                m.get(key)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("spec.json: metric without {key}"))
            };
            Ok(Metric {
                name: field("name")?,
                unit: field("unit")?,
            })
        })
        .collect()
}

/// Renders `values` as the result line's `metrics` object in catalogue
/// order. Every catalogued metric of `mode` must have a finite value and
/// no other may appear.
pub fn render(mode: Mode, values: &BTreeMap<&str, f64>) -> Result<String, String> {
    let catalogue = metrics(mode)?;
    let mut extra: Vec<&&str> = values
        .keys()
        .filter(|k| !catalogue.iter().any(|m| m.name == **k))
        .collect();
    if let Some(name) = extra.pop() {
        return Err(format!("metric {name} is not catalogued in spec.json"));
    }
    let mut out = Vec::with_capacity(catalogue.len());
    for m in &catalogue {
        let value = *values
            .get(m.name.as_str())
            .ok_or_else(|| format!("metric {} was not measured", m.name))?;
        if !value.is_finite() {
            return Err(format!("metric {} is not finite: {value}", m.name));
        }
        out.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        ));
    }
    Ok(format!("{{{}}}", out.join(", ")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    /// Whether `name` is a valid metric or workload name: starts with a
    /// letter or digit, at most 64 of `[A-Za-z0-9_.-]`.
    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn strings(v: &Value, key: &str) -> Vec<String> {
        v.get(key)
            .and_then(Value::as_array)
            .expect("list")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn name_charset() {
        for ok in ["atts_per_s", "platform.boot_us.p99", "0x-1", "a"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in [
            "",
            ".lead",
            "_lead",
            "sp ace",
            "µs",
            "a/b",
            "x:y",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn catalogue_names_are_valid_and_unique() {
        let spec = parse().expect("spec parses");
        let mut all = strings(&spec, "end_to_end");
        all.extend(strings(&spec, "per_layer"));
        all.extend(strings(&spec, "workloads"));
        for name in &all {
            assert!(valid_name(name), "{name}");
        }
        let mut unique = all.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), all.len(), "duplicate names");
        for m in metrics(Mode::EndToEnd)
            .unwrap()
            .iter()
            .chain(&metrics(Mode::PerLayer).unwrap())
        {
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit {:?} of {}",
                m.unit,
                m.name
            );
        }
    }

    #[test]
    fn workloads_match_the_code() {
        let spec = parse().expect("spec parses");
        let names: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        assert_eq!(strings(&spec, "workloads"), names);
    }

    /// `BENCHMARK.json` must be exactly the contract projection of the
    /// catalogue: same workloads and whys, same metrics with the same
    /// units, directions and bounds.
    #[test]
    fn benchmark_json_is_the_catalogue_projection() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(root).expect("BENCHMARK.json at the repo root");
        let bench = json::parse(&text).expect("BENCHMARK.json parses");
        let spec = parse().expect("spec parses");
        let project = |list: &Value, keys: &[&str]| -> Vec<Vec<(String, String)>> {
            list.as_array()
                .expect("list")
                .iter()
                .map(|item| {
                    keys.iter()
                        .map(|k| (k.to_string(), format!("{:?}", item.get(k))))
                        .collect()
                })
                .collect()
        };
        for (key, fields) in [
            ("workloads", &["name", "why"][..]),
            ("end_to_end", &["name", "unit", "better", "bound"][..]),
            ("per_layer", &["name", "unit", "better"][..]),
        ] {
            assert_eq!(
                project(bench.get(key).expect(key), fields),
                project(spec.get(key).expect(key), fields),
                "{key} differs between BENCHMARK.json and spec.json"
            );
            for item in bench.get(key).and_then(Value::as_array).expect(key) {
                let n = item.as_object().expect("object").len();
                assert_eq!(n, fields.len(), "{key} entry has extra keys");
            }
        }
        let e2e = strings(&bench, "end_to_end");
        assert!(e2e.iter().any(|n| n == "setup_s"));
        for item in bench.get("end_to_end").and_then(Value::as_array).unwrap() {
            let bound = item.get("bound").and_then(Value::as_number).unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
        for w in bench.get("workloads").and_then(Value::as_array).unwrap() {
            assert!(w.get("why").and_then(Value::as_str).unwrap().len() <= 200);
        }
    }

    #[test]
    fn render_demands_exactly_the_catalogue() {
        let names: Vec<String> = metrics(Mode::EndToEnd)
            .unwrap()
            .into_iter()
            .map(|m| m.name)
            .collect();
        let mut values: BTreeMap<&str, f64> = names.iter().map(|n| (n.as_str(), 1.5)).collect();
        let line = render(Mode::EndToEnd, &values).expect("complete");
        assert!(json::parse(&line).is_ok(), "{line}");
        values.insert("bogus", 1.0);
        assert!(render(Mode::EndToEnd, &values).is_err());
        values.remove("bogus");
        values.insert(names[0].as_str(), f64::NAN);
        assert!(render(Mode::EndToEnd, &values).is_err());
        values.remove(names[0].as_str());
        assert!(render(Mode::EndToEnd, &values).is_err());
    }
}
