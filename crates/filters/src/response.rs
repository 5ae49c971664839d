//! Frequency-response analysis of FIR filters.
//!
//! Designs are verified by sampling the zero-phase amplitude response of
//! linear-phase filters (symmetric taps) and measuring passband ripple and
//! stopband attenuation over the bands of a [`crate::FilterSpec`].

use crate::spec::BandSpec;

/// Complex frequency response `H(e^{j2πf})` of arbitrary taps at normalized
/// frequency `f`, returned as `(re, im)`.
///
/// # Examples
///
/// ```
/// use mrp_filters::response::frequency_response;
/// // A pure delay has unit magnitude everywhere.
/// let (re, im) = frequency_response(&[0.0, 1.0], 0.123);
/// assert!(((re * re + im * im).sqrt() - 1.0).abs() < 1e-12);
/// ```
pub fn frequency_response(taps: &[f64], f: f64) -> (f64, f64) {
    let mut re = 0.0;
    let mut im = 0.0;
    for (n, &h) in taps.iter().enumerate() {
        let phase = -2.0 * std::f64::consts::PI * f * n as f64;
        re += h * phase.cos();
        im += h * phase.sin();
    }
    (re, im)
}

/// Magnitude response `|H(e^{j2πf})|`.
pub fn magnitude(taps: &[f64], f: f64) -> f64 {
    let (re, im) = frequency_response(taps, f);
    re.hypot(im)
}

/// Zero-phase amplitude response `A(f)` of a symmetric (type I/II)
/// linear-phase filter — signed, so equiripple behaviour around zero is
/// visible in stopbands.
///
/// # Panics
///
/// Panics if the taps are not symmetric to within `1e-9`.
pub fn amplitude_response(taps: &[f64], f: f64) -> f64 {
    let n = taps.len();
    assert!(n > 0, "empty taps");
    for k in 0..n / 2 {
        assert!(
            (taps[k] - taps[n - 1 - k]).abs() < 1e-9,
            "taps must be symmetric for a zero-phase amplitude response"
        );
    }
    let w = 2.0 * std::f64::consts::PI * f;
    if n % 2 == 1 {
        let mid = n / 2;
        let mut a = taps[mid];
        for k in 1..=mid {
            a += 2.0 * taps[mid - k] * (w * k as f64).cos();
        }
        a
    } else {
        let half = n / 2;
        let mut a = 0.0;
        for k in 0..half {
            a += 2.0 * taps[half - 1 - k] * (w * (k as f64 + 0.5)).cos();
        }
        a
    }
}

/// Measured ripple statistics of a filter against a set of design bands.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RippleReport {
    /// Largest deviation `|A(f) - desired|` over all passbands
    /// (`desired = 1`).
    pub passband_deviation: f64,
    /// Largest magnitude in any stopband (`desired = 0`).
    pub stopband_deviation: f64,
    /// Passband ripple expressed in dB peak-to-peak.
    pub passband_ripple_db: f64,
    /// Stopband attenuation in dB (positive; larger is better).
    pub stopband_atten_db: f64,
}

/// Sweeps `grid_points` per band and reports worst-case deviations.
///
/// # Examples
///
/// ```
/// use mrp_filters::{remez, FilterSpec};
/// use mrp_filters::response::measure_ripple;
///
/// let spec = FilterSpec::lowpass(0.10, 0.18, 0.5, 40.0);
/// let taps = remez(30, &spec.to_bands())?;
/// let rep = measure_ripple(&taps, &spec.to_bands(), 512);
/// assert!(rep.stopband_atten_db > 20.0);
/// # Ok::<(), mrp_filters::DesignError>(())
/// ```
pub fn measure_ripple(taps: &[f64], bands: &[BandSpec], grid_points: usize) -> RippleReport {
    let mut pass_dev = 0.0f64;
    let mut stop_dev = 0.0f64;
    for b in bands {
        for i in 0..grid_points {
            let f = b.low + (b.high - b.low) * i as f64 / (grid_points - 1).max(1) as f64;
            let a = amplitude_response(taps, f);
            let dev = (a - b.desired).abs();
            if b.desired != 0.0 {
                pass_dev = pass_dev.max(dev);
            } else {
                stop_dev = stop_dev.max(dev);
            }
        }
    }
    let passband_ripple_db = 20.0 * ((1.0 + pass_dev) / (1.0 - pass_dev).max(1e-12)).log10();
    let stopband_atten_db = -20.0 * stop_dev.max(1e-12).log10();
    RippleReport {
        passband_deviation: pass_dev,
        stopband_deviation: stop_dev,
        passband_ripple_db,
        stopband_atten_db,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn impulse_is_allpass() {
        let taps = [1.0];
        for f in [0.0, 0.1, 0.25, 0.5] {
            assert!((magnitude(&taps, f) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn moving_average_dc_gain() {
        let taps = [0.25; 4];
        assert!((magnitude(&taps, 0.0) - 1.0).abs() < 1e-12);
        // Nyquist null for even-length MA.
        assert!(magnitude(&taps, 0.5) < 1e-12);
    }

    #[test]
    fn amplitude_matches_magnitude_for_symmetric() {
        let taps = [0.1, 0.2, 0.4, 0.2, 0.1];
        for i in 0..32 {
            let f = 0.5 * i as f64 / 31.0;
            assert!(
                (amplitude_response(&taps, f).abs() - magnitude(&taps, f)).abs() < 1e-9,
                "mismatch at f={f}"
            );
        }
    }

    #[test]
    fn even_length_symmetric_amplitude() {
        let taps = [0.2, 0.3, 0.3, 0.2];
        for i in 0..16 {
            let f = 0.45 * i as f64 / 15.0;
            assert!((amplitude_response(&taps, f).abs() - magnitude(&taps, f)).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "symmetric")]
    fn amplitude_rejects_asymmetric() {
        amplitude_response(&[1.0, 0.0, 2.0], 0.1);
    }

    #[test]
    fn ripple_report_of_ideal_dc_blocker() {
        // A symmetric high-pass-ish toy; just sanity-check the report shape.
        let taps = [-0.25, 0.5, -0.25];
        let bands = [
            BandSpec {
                low: 0.4,
                high: 0.5,
                desired: 1.0,
                weight: 1.0,
            },
            BandSpec {
                low: 0.0,
                high: 0.05,
                desired: 0.0,
                weight: 1.0,
            },
        ];
        let rep = measure_ripple(&taps, &bands, 64);
        assert!(rep.stopband_deviation < 0.1);
        assert!(rep.stopband_atten_db > 20.0);
    }
}
