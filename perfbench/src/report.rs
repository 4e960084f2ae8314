//! The run's result: human-readable lines first, then one JSON object
//! as the last line of standard output.

pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    /// (name, value, repeats exactly for a fixed seed)
    counters: Vec<(String, u64, bool)>,
    problems: Vec<String>,
}

impl Report {
    pub fn new() -> Report {
        Report {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            counters: Vec::new(),
            problems: Vec::new(),
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn counter(&mut self, name: impl Into<String>, value: u64, repeats: bool) {
        self.counters.push((name.into(), value, repeats));
    }

    /// Records an audit failure; the run is reported incorrect.
    pub fn fail(&mut self, problem: impl Into<String>) {
        self.correct = false;
        self.problems.push(problem.into());
    }

    /// Prints counters, problems and metrics, then the JSON result line.
    /// A run that attempted nothing is reported as one failed operation.
    pub fn print(&mut self) {
        if self.attempted == 0 {
            self.fail("no operation was attempted");
            self.attempted = 1;
            self.failed = 1;
        }
        let empty: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| !m.1.is_finite())
            .map(|m| format!("{} has no samples", m.0))
            .collect();
        for problem in empty {
            self.fail(problem);
        }
        if !self.counters.is_empty() {
            println!("counters (repeats = same value for the same seed):");
            for (name, v, repeats) in &self.counters {
                println!(
                    "  {name:<44} {v:>14}  {}",
                    if *repeats { "repeats" } else { "varies" }
                );
            }
        }
        for p in &self.problems {
            println!("AUDIT FAILED: {p}");
        }
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "operations: attempted={} failed={} failed_ops_share={share}",
            self.attempted, self.failed
        );
        for (name, v, unit) in &self.metrics {
            println!("  {name:<36} {v:>16.4} {unit}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}
