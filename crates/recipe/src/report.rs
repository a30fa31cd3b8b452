//! The structured sweep result and its JSON rendering (`BENCH_sweep.json`).

use crate::exec::CellResult;
use crate::gate::GateOutcome;

/// The complete result of one sweep: every cell plus every gate verdict.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Recipe name.
    pub recipe: String,
    /// Recipe description.
    pub description: String,
    /// Executed cells, in recipe order.
    pub cells: Vec<CellResult>,
    /// Gate verdicts, in recipe order.
    pub gates: Vec<GateOutcome>,
}

impl SweepReport {
    /// Whether every gate held. A sweep with no gates passes.
    pub fn passed(&self) -> bool {
        self.gates.iter().all(|g| g.passed)
    }

    /// Renders the report as a JSON document (the `BENCH_sweep.json` matrix).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        out.push_str(&format!("  \"recipe\": {},\n", json_string(&self.recipe)));
        out.push_str(&format!(
            "  \"description\": {},\n",
            json_string(&self.description)
        ));
        out.push_str(&format!("  \"passed\": {},\n", self.passed()));
        out.push_str("  \"cells\": [\n");
        for (i, cell) in self.cells.iter().enumerate() {
            let spec = &cell.spec;
            out.push_str("    {\n");
            out.push_str(&format!("      \"label\": {},\n", json_string(&cell.label)));
            out.push_str("      \"spec\": {\n");
            out.push_str(&format!(
                "        \"genome_length\": {},\n",
                spec.genome_length
            ));
            out.push_str(&format!(
                "        \"coverage\": {},\n",
                json_number(spec.coverage)
            ));
            out.push_str(&format!(
                "        \"error_rate\": {},\n",
                json_number(spec.error_rate)
            ));
            out.push_str(&format!("        \"seed\": {},\n", spec.seed));
            out.push_str(&format!("        \"k\": {},\n", spec.k));
            out.push_str(&format!("        \"threads\": {},\n", spec.threads));
            out.push_str(&format!("        \"shards\": {},\n", spec.shards));
            out.push_str(&format!(
                "        \"schedule\": {},\n",
                json_string(&spec.schedule.label())
            ));
            out.push_str(&format!(
                "        \"spill_budget\": {},\n",
                match spec.spill_budget {
                    Some(bytes) => bytes.to_string(),
                    None => "null".to_string(),
                }
            ));
            out.push_str(&format!(
                "        \"backend\": {}\n",
                match spec.backend {
                    Some(id) => json_string(id.as_str()),
                    None => "null".to_string(),
                }
            ));
            out.push_str("      },\n");
            out.push_str("      \"metrics\": {\n");
            for (j, (name, value)) in cell.metrics.iter().enumerate() {
                let comma = if j + 1 < cell.metrics.len() { "," } else { "" };
                out.push_str(&format!(
                    "        {}: {}{comma}\n",
                    json_string(name),
                    json_number(*value)
                ));
            }
            out.push_str("      }\n");
            let comma = if i + 1 < self.cells.len() { "," } else { "" };
            out.push_str(&format!("    }}{comma}\n"));
        }
        out.push_str("  ],\n");
        out.push_str("  \"gates\": [\n");
        for (i, gate) in self.gates.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!(
                "      \"gate\": {},\n",
                json_string(&gate.description)
            ));
            out.push_str(&format!(
                "      \"metric\": {},\n",
                json_string(&gate.metric)
            ));
            out.push_str(&format!(
                "      \"threshold\": {},\n",
                json_number(gate.threshold)
            ));
            out.push_str(&format!(
                "      \"observed\": {},\n",
                match gate.observed {
                    Some(v) => json_number(v),
                    None => "null".to_string(),
                }
            ));
            out.push_str(&format!(
                "      \"cells_checked\": {},\n",
                gate.cells_checked
            ));
            out.push_str(&format!("      \"passed\": {},\n", gate.passed));
            out.push_str(&format!(
                "      \"detail\": {}\n",
                json_string(&gate.detail)
            ));
            let comma = if i + 1 < self.gates.len() { "," } else { "" };
            out.push_str(&format!("    }}{comma}\n"));
        }
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        // Rust's shortest round-trip Display never uses exponent syntax, so
        // the rendering is always a valid JSON number.
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_numbers_stay_valid() {
        assert_eq!(json_number(1.5), "1.5");
        assert_eq!(json_number(0.0), "0");
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_number(f64::INFINITY), "null");
    }

    #[test]
    fn json_strings_escape_quotes() {
        assert_eq!(json_string("a\"b"), "\"a\\\"b\"");
    }

    #[test]
    fn empty_report_renders_and_passes() {
        let report = SweepReport {
            recipe: "empty".to_string(),
            description: "no cells".to_string(),
            cells: Vec::new(),
            gates: Vec::new(),
        };
        assert!(report.passed());
        let json = report.to_json();
        assert!(json.contains("\"recipe\": \"empty\""));
        assert!(json.contains("\"passed\": true"));
    }
}
