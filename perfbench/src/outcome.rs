//! What one measuring process reports to the process that started it: named
//! metrics with units, operation counts, and the checks that failed.
//!
//! Children print it as plain lines (`metric NAME VALUE UNIT`, `attempted
//! N`, `failed N`, `failure TEXT`) on standard output; the parent parses
//! them back.

#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

#[derive(Clone, Debug, Default, PartialEq)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Operations the workload attempted (fits, requests, layer calls).
    pub attempted: u64,
    /// Operations that returned an error or a non-200 status.
    pub failed: u64,
    /// One line per failed correctness check.
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &str) {
        self.metrics.push(Metric { name: name.into(), value, unit: unit.into() });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn to_lines(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            out.push_str(&format!("metric {} {:?} {}\n", m.name, m.value, m.unit));
        }
        out.push_str(&format!("attempted {}\nfailed {}\n", self.attempted, self.failed));
        for f in &self.failures {
            out.push_str(&format!("failure {}\n", f.replace('\n', " ")));
        }
        out
    }

    pub fn from_lines(text: &str) -> Result<Self, String> {
        let mut out = Outcome::default();
        for line in text.lines() {
            let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
            let bad = || format!("malformed report line {line:?}");
            match tag {
                "metric" => {
                    let mut parts = rest.split(' ');
                    let (Some(name), Some(value), Some(unit)) = (parts.next(), parts.next(), parts.next())
                    else {
                        return Err(bad());
                    };
                    let value = value.parse().map_err(|_| bad())?;
                    out.put(name, value, unit);
                }
                "attempted" => out.attempted = rest.parse().map_err(|_| bad())?,
                "failed" => out.failed = rest.parse().map_err(|_| bad())?,
                "failure" => out.failures.push(rest.to_string()),
                _ => {} // free-form progress lines
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_round_trip() {
        let mut o = Outcome { attempted: 12, failed: 1, ..Default::default() };
        o.put("fit_s", 4.123456789012345, "s");
        o.put("req_p50_ms", 0.1 + 0.2, "ms");
        o.check(false, || "proba sums to 0.9\nsecond line".into());
        let back = Outcome::from_lines(&format!("progress text\n{}", o.to_lines())).expect("parses");
        assert_eq!(back.metrics, o.metrics);
        assert_eq!((back.attempted, back.failed), (12, 1));
        assert_eq!(back.failures, vec!["proba sums to 0.9 second line".to_string()]);
    }
}
