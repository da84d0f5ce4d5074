//! Structure-of-arrays frame storage for the fused measurement pipeline.
//!
//! A reading is 24 frames of 256 I/Q samples. The per-frame representation
//! ([`IqFrame`], a `Vec<Complex>`) costs one heap allocation per frame and
//! forces every consumer to walk interleaved re/im pairs; [`FrameBatch`]
//! instead holds one reading's worth of frames as two contiguous planes
//! (all re samples, all im samples, frame-major), which is what lets the
//! synthesis fill run once per reading and the lane extraction kernel
//! window a group of frames straight from the planes into its
//! `[sample][lane]` FFT scratch (DESIGN.md §14).

use crate::{Complex, IqFrame};

/// A batch of equal-length I/Q frames stored as contiguous re/im planes.
///
/// Frame `f`'s samples live at indices `f·n .. (f+1)·n` of both planes,
/// so one reading's Gaussian fill is a single pass over each plane and a
/// per-frame kernel works on two contiguous `&[f64]` slices.
///
/// # Examples
///
/// ```
/// use waldo_iq::{Complex, FrameBatch, IqFrame};
///
/// let frames = vec![IqFrame::new(vec![Complex::new(1.0, -2.0); 4]); 3];
/// let batch = FrameBatch::from_frames(&frames);
/// assert_eq!(batch.frames(), 3);
/// assert_eq!(batch.frame_len(), 4);
/// assert_eq!(batch.to_frames(), frames);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FrameBatch {
    frames: usize,
    n: usize,
    re: Vec<f64>,
    im: Vec<f64>,
}

impl FrameBatch {
    /// A zero-filled batch of `frames` frames of `n` samples each.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeroed(frames: usize, n: usize) -> Self {
        assert!(frames > 0, "batch needs at least one frame");
        assert!(n > 0, "frame length must be positive");
        Self { frames, n, re: vec![0.0; frames * n], im: vec![0.0; frames * n] }
    }

    /// Copies per-frame storage into a batch.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is empty, any frame is empty, or the frames
    /// disagree in length.
    pub fn from_frames(frames: &[IqFrame]) -> Self {
        assert!(!frames.is_empty(), "batch needs at least one frame");
        let n = frames[0].len();
        assert!(n > 0, "frame length must be positive");
        assert!(frames.iter().all(|f| f.len() == n), "frames must share a length");
        let mut batch = Self::zeroed(frames.len(), n);
        for (f, frame) in frames.iter().enumerate() {
            let (re, im) = batch.frame_planes_mut(f);
            for (j, z) in frame.samples().iter().enumerate() {
                re[j] = z.re;
                im[j] = z.im;
            }
        }
        batch
    }

    /// Number of frames in the batch.
    pub fn frames(&self) -> usize {
        self.frames
    }

    /// Samples per frame.
    pub fn frame_len(&self) -> usize {
        self.n
    }

    /// Frame `f`'s in-phase plane.
    ///
    /// # Panics
    ///
    /// Panics if `f` is out of range.
    pub fn re_plane(&self, f: usize) -> &[f64] {
        &self.re[f * self.n..(f + 1) * self.n]
    }

    /// Frame `f`'s quadrature plane.
    ///
    /// # Panics
    ///
    /// Panics if `f` is out of range.
    pub fn im_plane(&self, f: usize) -> &[f64] {
        &self.im[f * self.n..(f + 1) * self.n]
    }

    /// Materializes frame `f` as interleaved samples.
    ///
    /// # Panics
    ///
    /// Panics if `f` is out of range.
    pub fn frame(&self, f: usize) -> IqFrame {
        let samples = self
            .re_plane(f)
            .iter()
            .zip(self.im_plane(f))
            .map(|(&re, &im)| Complex::new(re, im))
            .collect();
        IqFrame::new(samples)
    }

    /// Materializes every frame (the per-frame compatibility path).
    pub fn to_frames(&self) -> Vec<IqFrame> {
        (0..self.frames).map(|f| self.frame(f)).collect()
    }

    /// Both full planes, mutable (synthesis fill).
    pub(crate) fn planes_mut(&mut self) -> (&mut [f64], &mut [f64]) {
        (&mut self.re, &mut self.im)
    }

    /// Frame `f`'s planes, mutable (per-frame pilot injection).
    pub(crate) fn frame_planes_mut(&mut self, f: usize) -> (&mut [f64], &mut [f64]) {
        let span = f * self.n..(f + 1) * self.n;
        (&mut self.re[span.clone()], &mut self.im[span])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frames() -> Vec<IqFrame> {
        (0..3)
            .map(|f| {
                IqFrame::new(
                    (0..8).map(|j| Complex::new((f * 8 + j) as f64, -(j as f64))).collect(),
                )
            })
            .collect()
    }

    #[test]
    fn roundtrip_preserves_every_sample() {
        let frames = sample_frames();
        let batch = FrameBatch::from_frames(&frames);
        assert_eq!(batch.to_frames(), frames);
        for (f, frame) in frames.iter().enumerate() {
            assert_eq!(&batch.frame(f), frame);
            for (j, z) in frame.samples().iter().enumerate() {
                assert_eq!(batch.re_plane(f)[j], z.re);
                assert_eq!(batch.im_plane(f)[j], z.im);
            }
        }
    }

    #[test]
    fn planes_are_frame_major_contiguous() {
        let batch = FrameBatch::from_frames(&sample_frames());
        // Adjacent frames' planes are adjacent in memory.
        let base = batch.re_plane(0).as_ptr() as usize;
        let second = batch.re_plane(1).as_ptr() as usize;
        assert_eq!(second - base, batch.frame_len() * std::mem::size_of::<f64>());
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn empty_batch_panics() {
        let _ = FrameBatch::from_frames(&[]);
    }

    #[test]
    #[should_panic(expected = "share a length")]
    fn ragged_frames_panic() {
        let frames = vec![IqFrame::new(vec![Complex::ONE; 4]), IqFrame::new(vec![Complex::ONE; 8])];
        let _ = FrameBatch::from_frames(&frames);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_length_frames_panic() {
        let _ = FrameBatch::zeroed(2, 0);
    }
}
