//! Median and quartiles, computed as Python's
//! `statistics.quantiles(values, n=4)` computes them (the "exclusive"
//! method), because that is what the acceptance check of the benchmark uses.

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    /// Third minus first quartile; 0 for fewer than two samples.
    pub iqr: f64,
    pub n: usize,
}

/// `(q1, median, q3)` of `values`; all equal to the sample for one value.
/// Panics on an empty slice: every caller has at least one sample.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let len = data.len();
    if len == 1 {
        return (data[0], data[0], data[0]);
    }
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

pub fn summarize(values: &[f64]) -> Summary {
    let (q1, median, q3) = quartiles(values);
    Summary {
        median,
        iqr: q3 - q1,
        n: values.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), (1.25, 2.5, 3.75));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 15.0, 22.5));
        // statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], n=4) == [1.75, 3.5, 5.25]
        assert_eq!(
            quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0]),
            (1.75, 3.5, 5.25)
        );
    }

    #[test]
    fn summary_of_one_sample_has_no_spread() {
        assert_eq!(
            summarize(&[2.5]),
            Summary {
                median: 2.5,
                iqr: 0.0,
                n: 1
            }
        );
        assert_eq!(summarize(&[1.0, 2.0, 3.0, 4.0, 5.0]).iqr, 3.0);
    }
}
