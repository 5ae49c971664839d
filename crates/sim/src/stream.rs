//! Block-based streaming around a multiplierless FIR with output
//! width control.

use mrp_arch::FirFilter;

/// `true` when `delayed` is exactly `reference` shifted `latency` samples
/// later: zeros while the pipeline fills, then the reference values.
/// Positions past the end of `reference` compare against 0 (a drained
/// pipe fed zero-padded input), and trailing reference samples without a
/// delayed counterpart are not checked — the comparison covers
/// `delayed`'s length.
///
/// This is the stream-level form of the latency-adjusted equivalence gate
/// pipelined netlists must pass: a pipelined block is correct iff its
/// output stream `equal_with_latency`s the combinational one.
///
/// # Examples
///
/// ```
/// use mrp_sim::equal_with_latency;
///
/// assert!(equal_with_latency(&[3, 1, 4], &[0, 0, 3, 1, 4], 2));
/// assert!(!equal_with_latency(&[3, 1, 4], &[3, 1, 4], 2));
/// ```
pub fn equal_with_latency(reference: &[i64], delayed: &[i64], latency: usize) -> bool {
    delayed
        .iter()
        .enumerate()
        .all(|(t, &y)| match t.checked_sub(latency) {
            None => y == 0,
            Some(k) => reference.get(k).copied().unwrap_or(0) == y,
        })
}

/// What happens when an output exceeds the configured output width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverflowMode {
    /// Clamp to the representable range (the usual DSP datapath choice).
    #[default]
    Saturate,
    /// Two's-complement wraparound (what unchecked hardware does).
    Wrap,
}

/// A streaming FIR: processes arbitrary-size blocks while carrying the
/// filter state between calls, and constrains outputs to `output_width`
/// bits with the chosen overflow behaviour.
///
/// # Examples
///
/// ```
/// use mrp_arch::{simple_multiplier_block, FirFilter};
/// use mrp_numrep::Repr;
/// use mrp_sim::{OverflowMode, StreamingFir};
///
/// let coeffs = [3i64, -1, 4];
/// let (mut g, outs) = simple_multiplier_block(&coeffs, Repr::Csd)?;
/// for (i, (&t, &c)) in outs.iter().zip(&coeffs).enumerate() {
///     g.push_output(format!("c{i}"), t, c);
/// }
/// let mut s = StreamingFir::new(FirFilter::new(g), 32, OverflowMode::Saturate);
/// // Streaming in two blocks equals filtering in one shot.
/// let mut out = s.process(&[1, 0]);
/// out.extend(s.process(&[0, 2]));
/// assert_eq!(out, vec![3, -1, 4, 6]);
/// # Ok::<(), mrp_arch::ArchError>(())
/// ```
#[derive(Debug, Clone)]
pub struct StreamingFir {
    filter: FirFilter,
    history: Vec<i64>,
    output_width: u32,
    mode: OverflowMode,
    samples_processed: u64,
}

impl StreamingFir {
    /// Wraps a filter with an output width (2..=63 bits) and overflow mode.
    ///
    /// # Panics
    ///
    /// Panics if `output_width` is outside `2..=63`.
    pub fn new(filter: FirFilter, output_width: u32, mode: OverflowMode) -> Self {
        assert!(
            (2..=63).contains(&output_width),
            "output width must be within 2..=63"
        );
        StreamingFir {
            filter,
            history: Vec::new(),
            output_width,
            mode,
            samples_processed: 0,
        }
    }

    /// Total samples processed since construction or the last
    /// [`StreamingFir::reset`].
    pub fn samples_processed(&self) -> u64 {
        self.samples_processed
    }

    /// Clears the filter state.
    pub fn reset(&mut self) {
        self.history.clear();
        self.samples_processed = 0;
    }

    /// Processes one block, returning one output per input sample.
    pub fn process(&mut self, block: &[i64]) -> Vec<i64> {
        // Prepend retained history, filter, and emit only the new tail.
        let taps = self.filter.tap_count();
        let mut input = self.history.clone();
        input.extend_from_slice(block);
        let full = self.filter.filter(&input);
        let out: Vec<i64> = full[self.history.len()..]
            .iter()
            .map(|&y| self.constrain(y))
            .collect();
        // Keep the last taps-1 samples as state for the next block.
        let keep = taps.saturating_sub(1).min(input.len());
        self.history = input[input.len() - keep..].to_vec();
        self.samples_processed += block.len() as u64;
        out
    }

    /// Constrains `y` to the output width under the overflow mode.
    fn constrain(&self, y: i64) -> i64 {
        let max = (1i64 << (self.output_width - 1)) - 1;
        let min = -(1i64 << (self.output_width - 1));
        match self.mode {
            OverflowMode::Saturate => y.clamp(min, max),
            OverflowMode::Wrap => {
                let shift = 64 - self.output_width;
                (y << shift) >> shift
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrp_arch::{direct_fir, simple_multiplier_block};
    use mrp_numrep::Repr;

    fn filter(coeffs: &[i64]) -> FirFilter {
        let (mut g, outs) = simple_multiplier_block(coeffs, Repr::Csd).unwrap();
        for (i, (&t, &c)) in outs.iter().zip(coeffs).enumerate() {
            g.push_output(format!("c{i}"), t, c);
        }
        FirFilter::new(g)
    }

    #[test]
    fn latency_equivalence_matches_a_real_delay() {
        let coeffs = [5i64, -2, 7];
        let input: Vec<i64> = (0..20).map(|i| (i * 11 % 17) - 8).collect();
        let reference = direct_fir(&coeffs, &input);
        for latency in 0..3usize {
            let mut delayed = vec![0i64; latency];
            delayed.extend_from_slice(&reference);
            assert!(
                equal_with_latency(&reference, &delayed, latency),
                "latency {latency}"
            );
            if latency > 0 {
                assert!(!equal_with_latency(&reference, &delayed, latency - 1));
            }
        }
        // A corrupted fill sample is caught too.
        assert!(!equal_with_latency(&[1, 2], &[9, 1, 2], 1));
    }

    #[test]
    fn latency_equivalence_zero_length_streams() {
        // Empty delayed stream: nothing to check, trivially equal.
        assert!(equal_with_latency(&[], &[], 0));
        assert!(equal_with_latency(&[1, 2, 3], &[], 5));
        // Empty reference: the delayed stream must be all zeros (a pipe
        // fed nothing and drained).
        assert!(equal_with_latency(&[], &[0, 0, 0], 1));
        assert!(!equal_with_latency(&[], &[0, 4, 0], 1));
    }

    #[test]
    fn latency_longer_than_stream() {
        // latency == delayed length: every position is still pipe fill.
        assert!(equal_with_latency(&[7, 8], &[0, 0], 2));
        // latency beyond both lengths: only zeros are acceptable.
        assert!(equal_with_latency(&[7, 8], &[0, 0, 0, 0], 9));
        assert!(!equal_with_latency(&[7, 8], &[0, 0, 0, 7], 9));
        // Drained-pipe tail past the reference end must read 0.
        assert!(equal_with_latency(&[7], &[0, 7, 0, 0], 1));
        assert!(!equal_with_latency(&[7], &[0, 7, 7, 0], 1));
    }

    #[test]
    fn saturate_and_wrap_diverge_exactly_at_the_width_boundary() {
        let coeffs = [1i64];
        let mut sat = StreamingFir::new(filter(&coeffs), 8, OverflowMode::Saturate);
        let mut wrap = StreamingFir::new(filter(&coeffs), 8, OverflowMode::Wrap);
        // In range: identical.
        assert_eq!(sat.process(&[127, -128]), wrap.process(&[127, -128]));
        // One past the rails: saturate pins, wrap flips sign.
        assert_eq!(sat.process(&[128]), vec![127]);
        assert_eq!(wrap.process(&[128]), vec![-128]);
        assert_eq!(sat.process(&[-129]), vec![-128]);
        assert_eq!(wrap.process(&[-129]), vec![127]);
    }

    #[test]
    fn blocked_equals_batch() {
        let coeffs = [5i64, -2, 7, 1];
        let input: Vec<i64> = (0..40).map(|i| (i * 13 % 29) - 14).collect();
        let batch = direct_fir(&coeffs, &input);
        let mut s = StreamingFir::new(filter(&coeffs), 40, OverflowMode::Saturate);
        let mut out = Vec::new();
        for chunk in input.chunks(7) {
            out.extend(s.process(chunk));
        }
        assert_eq!(out, batch);
        assert_eq!(s.samples_processed(), 40);
    }

    #[test]
    fn saturation_clamps() {
        let coeffs = [1000i64];
        let mut s = StreamingFir::new(filter(&coeffs), 8, OverflowMode::Saturate);
        assert_eq!(s.process(&[1000]), vec![127]);
        assert_eq!(s.process(&[-1000]), vec![-128]);
    }

    #[test]
    fn wrap_wraps() {
        let coeffs = [1i64];
        let mut s = StreamingFir::new(filter(&coeffs), 8, OverflowMode::Wrap);
        assert_eq!(s.process(&[128]), vec![-128]);
        assert_eq!(s.process(&[256]), vec![0]);
    }

    #[test]
    fn reset_clears_state() {
        let coeffs = [1i64, 1];
        let mut s = StreamingFir::new(filter(&coeffs), 16, OverflowMode::Saturate);
        s.process(&[7]);
        s.reset();
        assert_eq!(s.process(&[1]), vec![1]); // no leftover 7
        assert_eq!(s.samples_processed(), 1);
    }

    #[test]
    fn empty_blocks_are_fine() {
        let coeffs = [3i64];
        let mut s = StreamingFir::new(filter(&coeffs), 16, OverflowMode::Saturate);
        assert!(s.process(&[]).is_empty());
        assert_eq!(s.process(&[2]), vec![6]);
    }
}
