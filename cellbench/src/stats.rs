//! Sample sets and the order statistics the report uses.

/// Timings of one kind of operation, in milliseconds.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    v: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, ms: f64) {
        self.v.push(ms);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.v.extend_from_slice(&other.v);
    }

    pub fn len(&self) -> usize {
        self.v.len()
    }

    /// The `q` quantile (0..=1) by linear interpolation between order
    /// statistics; `NaN` on an empty set.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile(&self.v, q)
    }

    /// `p50 p90 p95 p98 p99 p99.5 max` on one line, for the report.
    pub fn profile(&self) -> String {
        let q = |p: f64| self.quantile(p);
        format!(
            "p50 {:.2} p90 {:.2} p95 {:.2} p98 {:.2} p99 {:.2} p99.5 {:.2} max {:.2} (n={})",
            q(0.5),
            q(0.9),
            q(0.95),
            q(0.98),
            q(0.99),
            q(0.995),
            q(1.0),
            self.len()
        )
    }

    pub fn mean(&self) -> f64 {
        if self.v.is_empty() {
            return f64::NAN;
        }
        self.v.iter().sum::<f64>() / self.v.len() as f64
    }

    /// Mean of the samples left after dropping the lowest and the
    /// highest `share` of them; `NaN` on an empty set.
    pub fn trimmed_mean(&self, share: f64) -> f64 {
        let mut v = self.v.clone();
        v.sort_by(f64::total_cmp);
        let cut = (v.len() as f64 * share.clamp(0.0, 0.49)).floor() as usize;
        let kept = &v[cut..v.len() - cut];
        if kept.is_empty() {
            return f64::NAN;
        }
        kept.iter().sum::<f64>() / kept.len() as f64
    }
}

/// Linear-interpolated quantile of unsorted values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s: Vec<f64> = (1..=5).map(|x| x as f64).collect();
        assert_eq!(median(&s), 3.0);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 5.0);
        assert_eq!(quantile(&s, 0.25), 2.0);
        assert_eq!(quantile(&[4.0, 2.0], 0.5), 3.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn trimmed_mean_drops_both_tails() {
        let mut s = Samples::default();
        for x in [100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, -50.0] {
            s.push(x);
        }
        assert_eq!(s.trimmed_mean(0.1), 4.5);
        assert_eq!(s.trimmed_mean(0.0), s.mean());
        assert!(Samples::default().trimmed_mean(0.1).is_nan());
    }
}
