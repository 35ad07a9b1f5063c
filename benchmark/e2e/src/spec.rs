//! `BENCHMARK.json` as the single statement of metric names, units,
//! directions and bounds: the tools read it instead of repeating it.

use crate::json::Json;
use std::path::Path;

#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Share of the baseline by which the metric may worsen; `None` for
    /// per-layer metrics, which have no bound.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn metric_list(doc: &Json, key: &str) -> Result<Vec<MetricSpec>, String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .ok_or(format!("BENCHMARK.json: no `{key}` list"))?
        .iter()
        .map(|m| {
            Ok(MetricSpec {
                name: m.str("name").ok_or("metric without a name")?.to_string(),
                unit: m.str("unit").ok_or("metric without a unit")?.to_string(),
                higher_is_better: match m.str("better") {
                    Some("higher") => true,
                    Some("lower") => false,
                    other => return Err(format!("bad `better`: {other:?}")),
                },
                bound: m.num("bound"),
            })
        })
        .collect()
}

impl Spec {
    /// Reads `BENCHMARK.json` from the root of the checkout.
    pub fn load(root: &Path) -> Result<Spec, String> {
        let path = root.join("BENCHMARK.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or("BENCHMARK.json: no `workloads` list")?
            .iter()
            .filter_map(|w| w.str("name").map(str::to_string))
            .collect();
        Ok(Spec {
            run_seconds: doc
                .num("run_seconds")
                .ok_or("BENCHMARK.json: no `run_seconds`")?,
            workloads,
            end_to_end: metric_list(&doc, "end_to_end")?,
            per_layer: metric_list(&doc, "per_layer")?,
        })
    }

    pub fn end_to_end(&self, name: &str) -> Option<&MetricSpec> {
        self.end_to_end.iter().find(|m| m.name == name)
    }
}

impl MetricSpec {
    /// How much worse `new` is than `base`, as a share of `base` (negative
    /// when better).
    pub fn worsening(&self, base: f64, new: f64) -> f64 {
        let change = (new - base) / base.abs();
        if self.higher_is_better {
            -change
        } else {
            change
        }
    }
}
