//! Terminal plotting for the figure series: sparklines, so `repro`
//! output visually mirrors the paper's figures without any plotting
//! dependency.

/// Renders a sparkline (`▁▂▃▄▅▆▇█`) scaled to the series' own maximum.
/// Gaps (`None`) render as spaces — Fig. 5's connectivity-loss windows.
pub fn sparkline(values: &[Option<f64>]) -> String {
    const BARS: [char; 8] = ['\u{2581}', '\u{2582}', '\u{2583}', '\u{2584}', '\u{2585}', '\u{2586}', '\u{2587}', '\u{2588}'];
    let max = values
        .iter()
        .flatten()
        .fold(0.0f64, |acc, &v| acc.max(v));
    values
        .iter()
        .map(|v| match v {
            None => ' ',
            Some(v) if max <= 0.0 => BARS[0],
            Some(v) => {
                let idx = ((v / max) * 7.0).round().clamp(0.0, 7.0) as usize;
                BARS[idx]
            }
        })
        .collect()
}

/// Renders a dense series of plain values (zero renders as the lowest
/// bar, which reads as "throughput collapsed" in the Fig. 2 plots).
pub fn sparkline_values(values: &[f64]) -> String {
    let wrapped: Vec<Option<f64>> = values.iter().map(|&v| Some(v)).collect();
    sparkline(&wrapped)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_scales_to_max() {
        let s = sparkline_values(&[0.0, 50.0, 100.0]);
        let chars: Vec<char> = s.chars().collect();
        assert_eq!(chars.len(), 3);
        assert_eq!(chars[0], '\u{2581}');
        assert_eq!(chars[2], '\u{2588}');
        assert!(chars[1] > chars[0] && chars[1] < chars[2]);
    }

    #[test]
    fn gaps_render_as_spaces() {
        let s = sparkline(&[Some(1.0), None, Some(1.0)]);
        assert_eq!(s.chars().nth(1), Some(' '));
    }

    #[test]
    fn all_zero_series_renders_flat() {
        let s = sparkline_values(&[0.0, 0.0]);
        assert!(s.chars().all(|c| c == '\u{2581}'));
    }

    #[test]
    fn empty_series_is_empty() {
        assert_eq!(sparkline(&[]), "");
    }
}
