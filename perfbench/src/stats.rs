//! Percentiles from the benchmark's own samples.

/// Nearest-rank percentile of an ascending slice (`q` in 0..=1).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// A latency sample set, summarised as p50 and p90 with the sample
/// counts a reader needs to trust them.
pub struct Latency {
    sorted: Vec<f64>,
}

impl Latency {
    pub fn new(mut samples: Vec<f64>) -> Latency {
        samples.sort_by(f64::total_cmp);
        Latency { sorted: samples }
    }

    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    pub fn p(&self, q: f64) -> f64 {
        percentile(&self.sorted, q)
    }

    /// Samples strictly beyond the `q` rank.
    pub fn beyond(&self, q: f64) -> usize {
        let rank = (q * self.sorted.len() as f64).ceil() as usize;
        self.sorted.len().saturating_sub(rank)
    }

    /// One report line: `p50=.. p90=.. (n=.., beyond p90=..)`.
    pub fn describe(&self, unit: &str) -> String {
        format!(
            "p50={:.1}{unit} p90={:.1}{unit} (n={}, beyond p90={})",
            self.p(0.5),
            self.p(0.9),
            self.count(),
            self.beyond(0.9)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(Latency::new(v).beyond(0.9), 1);
    }
}
