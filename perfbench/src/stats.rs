//! The benchmark's reduction code: medians, quartiles, ratios and failure
//! accounting. Kept free of any mapper type so it can be tested alone.

/// Median of `xs` (mean of the middle pair for an even count), or `None`
/// for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First and third quartiles by the method of Python's
/// `statistics.quantiles(xs, n=4)` (its default, "exclusive"), so the
/// spreads printed here match the ones Python computes from the values.
/// `None` for an empty slice; a single value is its own quartiles.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs);
    let ld = s.len();
    match ld {
        0 => None,
        1 => Some((s[0], s[0])),
        _ => {
            // Signed: clamping `j` up to 1 makes `delta` negative for two
            // values, and Python extrapolates with it.
            let (ld, m) = (ld as i64, ld as i64 + 1);
            let cut = |i: i64| {
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m - j * 4) as f64;
                let j = j as usize;
                (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
            };
            Some((cut(1), cut(3)))
        }
    }
}

/// `num / den`, or `None` when the base is zero or either side is not
/// finite — a ratio is reported as JSON `null`, never `inf` or `NaN`.
pub fn ratio(num: f64, den: f64) -> Option<f64> {
    let r = num / den;
    (den != 0.0 && r.is_finite()).then_some(r)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Sample count, median, quartiles and extremes of one timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
}

impl Spread {
    /// The spread of `xs`, or `None` for an empty slice.
    pub fn of(xs: &[f64]) -> Option<Spread> {
        let (q1, q3) = quartiles(xs)?;
        Some(Spread {
            n: xs.len(),
            median: median(xs)?,
            q1,
            q3,
            min: xs.iter().copied().fold(f64::INFINITY, f64::min),
            max: xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        })
    }

    /// The spread as a JSON object.
    pub fn json(&self) -> String {
        format!(
            "{{\"n\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"min\": {}, \"max\": {}}}",
            self.n, self.median, self.q1, self.q3, self.min, self.max
        )
    }
}

/// Attempted and failed flows. A flow fails once however many of its
/// checks fail; the first few reasons are kept for the report.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Tally {
    /// Reasons kept for the report; later ones are only counted.
    const KEPT_REASONS: usize = 8;

    /// Records one flow, failed when `problems` is non-empty.
    pub fn record(&mut self, flow: &str, problems: &[String]) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            if self.reasons.len() < Self::KEPT_REASONS {
                self.reasons
                    .push(format!("{flow}: {}", problems.join("; ")));
            }
        }
    }

    /// Failed flows as a share of attempted ones (`None` before any flow).
    pub fn failed_share(&self) -> Option<f64> {
        ratio(self.failed as f64, self.attempted as f64)
    }
}

/// `value` as a JSON number, or `null` when absent.
pub fn json_number(value: Option<f64>) -> String {
    value.map_or_else(|| "null".to_string(), |v| v.to_string())
}

/// `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // Expected values below are what Python 3.11 prints for
    // `statistics.quantiles(xs, n=4)` and `statistics.median(xs)`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let cases: [(&[f64], (f64, f64), f64); 5] = [
            (&[1.0, 2.0, 3.0, 4.0, 5.0], (1.5, 4.5), 3.0),
            (&[3.0, 1.0, 2.0], (1.0, 3.0), 2.0),
            (&[1.0, 2.0], (0.75, 2.25), 1.5),
            (
                &[5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 8.0, 6.0, 10.0],
                (2.75, 8.25),
                5.5,
            ),
            (&[2.5, 1.0, 4.0, 8.0], (1.375, 7.0), 3.25),
        ];
        for (xs, q, m) in cases {
            assert_eq!(quartiles(xs), Some(q), "{xs:?}");
            assert_eq!(median(xs), Some(m), "{xs:?}");
        }
    }

    #[test]
    fn degenerate_samples() {
        assert_eq!(median(&[]), None);
        assert_eq!(quartiles(&[]), None);
        assert_eq!(Spread::of(&[]), None);
        assert_eq!(quartiles(&[7.0]), Some((7.0, 7.0)));
        let s = Spread::of(&[4.0, 1.0, 9.0]).unwrap();
        assert_eq!((s.n, s.min, s.max, s.median), (3, 1.0, 9.0, 4.0));
    }

    #[test]
    fn ratio_with_zero_base_is_null() {
        assert_eq!(ratio(3.0, 2.0), Some(1.5));
        assert_eq!(ratio(0.0, 4.0), Some(0.0));
        // e.g. ms per SAT call on a flow that made no SAT call
        assert_eq!(ratio(1.25, 0.0), None);
        assert_eq!(ratio(0.0, 0.0), None);
        assert_eq!(ratio(f64::NAN, 1.0), None);
        assert_eq!(json_number(ratio(1.0, 0.0)), "null");
        assert_eq!(json_number(Some(0.5)), "0.5");
    }

    #[test]
    fn failures_count_once_per_flow() {
        let mut t = Tally::default();
        assert_eq!(t.failed_share(), None);
        t.record("a", &[]);
        t.record(
            "b",
            &["cec: 1 unproven miters".into(), "serial differs".into()],
        );
        t.record("c", &[]);
        t.record("d", &[]);
        assert_eq!((t.attempted, t.failed), (4, 1));
        assert_eq!(t.failed_share(), Some(0.25));
        assert_eq!(t.reasons.len(), 1);
        assert!(t.reasons[0].starts_with("b: cec"));
        for _ in 0..20 {
            t.record("e", &["x".into()]);
        }
        assert_eq!(t.failed, 21);
        assert_eq!(t.reasons.len(), Tally::KEPT_REASONS);
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
