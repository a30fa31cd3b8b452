//! What a CI sweep returns and how `experiments sweep` reports it: one
//! [`Check`] per (cell, metric) a floor reads, printed one line each and
//! written as the `BENCH_sweep.json` document.

/// The side of its floor a check's value must fall on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Floor {
    /// The value must be at least this.
    AtLeast(f64),
    /// The value must be at most this.
    AtMost(f64),
}

/// One metric of one cell held to its floor.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// The configuration measured (`threads=4 single`, `nmp-pak`, `shards=8`, …).
    pub cell: String,
    /// The metric read.
    pub metric: &'static str,
    /// The floor it is held to.
    pub floor: Floor,
    /// The value measured.
    pub observed: f64,
}

impl Check {
    /// Whether the observed value is on the floor's side of it. A NaN fails
    /// in either direction.
    pub fn passed(&self) -> bool {
        match self.floor {
            Floor::AtLeast(floor) => self.observed >= floor,
            Floor::AtMost(cap) => self.observed <= cap,
        }
    }
}

pub(crate) fn at_least(
    cell: impl Into<String>,
    metric: &'static str,
    floor: f64,
    observed: f64,
) -> Check {
    Check {
        cell: cell.into(),
        metric,
        floor: Floor::AtLeast(floor),
        observed,
    }
}

pub(crate) fn at_most(
    cell: impl Into<String>,
    metric: &'static str,
    cap: f64,
    observed: f64,
) -> Check {
    Check {
        cell: cell.into(),
        metric,
        floor: Floor::AtMost(cap),
        observed,
    }
}

/// Prints one line per check.
pub fn print(name: &str, checks: &[Check]) {
    println!("sweep `{name}`: {} check(s)", checks.len());
    for check in checks {
        let verdict = if check.passed() { "PASS" } else { "FAIL" };
        let (op, floor) = op_and_floor(check.floor);
        println!(
            "  [{verdict}] {:<22} {} {op} {floor} (observed {:.4})",
            check.cell, check.metric, check.observed
        );
    }
}

/// The checks as the `BENCH_sweep.json` document. A NaN or infinite value
/// is written as `null`.
pub fn to_json(name: &str, checks: &[Check]) -> String {
    let rows: Vec<String> = checks
        .iter()
        .map(|c| {
            let (op, floor) = op_and_floor(c.floor);
            format!(
                "    {{\"cell\": {:?}, \"metric\": {:?}, \"op\": {op:?}, \"floor\": {}, \
                 \"observed\": {}, \"passed\": {}}}",
                c.cell,
                c.metric,
                json_number(floor),
                json_number(c.observed),
                c.passed()
            )
        })
        .collect();
    format!(
        "{{\n  \"sweep\": {name:?},\n  \"passed\": {},\n  \"checks\": [\n{}\n  ]\n}}\n",
        checks.iter().all(Check::passed),
        rows.join(",\n")
    )
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        // Display never uses exponent syntax: always a valid JSON number.
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn op_and_floor(floor: Floor) -> (&'static str, f64) {
    match floor {
        Floor::AtLeast(x) => (">=", x),
        Floor::AtMost(x) => ("<=", x),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_numbers_stay_valid() {
        assert_eq!(json_number(1.5), "1.5");
        assert_eq!(json_number(0.0), "0");
        assert_eq!(json_number(1e-7), "0.0000001");
        assert_eq!(json_number(1e21), "1000000000000000000000");
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_number(f64::INFINITY), "null");
        assert_eq!(json_number(f64::NEG_INFINITY), "null");
    }

    #[test]
    fn a_check_passes_on_its_floor_and_fails_past_it_or_on_nan() {
        let floor = |observed| at_least("cell", "metric", 1.0, observed).passed();
        let cap = |observed| at_most("cell", "metric", 1.0, observed).passed();
        assert!(floor(1.0) && floor(1.5) && !floor(0.5) && !floor(f64::NAN));
        assert!(cap(1.0) && cap(0.5) && !cap(1.5) && !cap(f64::NAN));
    }

    #[test]
    fn the_report_writes_a_nan_as_null_and_fails() {
        let checks = [
            at_least("a", "n50", 1.0, 29.0),
            at_most("b", "spill_overhead", 12.0, f64::NAN),
        ];
        let json = to_json("spill", &checks);
        assert!(json.contains("\"sweep\": \"spill\""));
        assert!(json.contains("\"passed\": false,\n"));
        assert!(json.contains(
            "{\"cell\": \"a\", \"metric\": \"n50\", \"op\": \">=\", \"floor\": 1, \
             \"observed\": 29, \"passed\": true}"
        ));
        assert!(json.contains("\"observed\": null, \"passed\": false}"));
    }
}
