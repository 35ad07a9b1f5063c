//! # parapre-transform
//!
//! Fast transforms backing the additive-Schwarz comparison of the paper
//! (§5.2): each Schwarz subdomain solve is "one Conjugate Gradient iteration
//! accelerated by a special FFT-based preconditioner". This crate provides
//! that preconditioner's machinery from scratch:
//!
//! * [`fft::fft`] / [`fft::ifft`] — complex FFT for arbitrary lengths
//!   (iterative radix-2 plus Bluestein chirp-z for non-powers of two);
//! * [`dst::dst1`] — the type-I discrete sine transform, the
//!   eigen-transform of the Dirichlet 1-D Laplacian;
//! * [`poisson::FastPoisson2d`] — direct fast diagonalization solver for
//!   the 5-point Dirichlet Laplacian on a rectangle, `O(n log n)`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Index loops mirror the papers' pseudocode in the numeric kernels.
#![allow(clippy::needless_range_loop)]

pub mod dst;
pub mod fft;
pub mod poisson;

pub use poisson::FastPoisson2d;

/// A complex number as a pair (re, im) — no external dependency needed for
/// the handful of operations the transforms use.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct C64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl C64 {
    /// Constructs from parts.
    #[inline]
    pub fn new(re: f64, im: f64) -> Self {
        C64 { re, im }
    }
    /// `e^{iθ}`.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        let (s, c) = theta.sin_cos();
        C64 { re: c, im: s }
    }
    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        C64 {
            re: self.re,
            im: -self.im,
        }
    }
    /// Squared magnitude.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }
}

impl std::ops::Add for C64 {
    type Output = C64;
    #[inline]
    fn add(self, o: C64) -> C64 {
        C64 {
            re: self.re + o.re,
            im: self.im + o.im,
        }
    }
}

impl std::ops::Sub for C64 {
    type Output = C64;
    #[inline]
    fn sub(self, o: C64) -> C64 {
        C64 {
            re: self.re - o.re,
            im: self.im - o.im,
        }
    }
}

impl std::ops::Mul for C64 {
    type Output = C64;
    #[inline]
    fn mul(self, o: C64) -> C64 {
        C64 {
            re: self.re * o.re - self.im * o.im,
            im: self.re * o.im + self.im * o.re,
        }
    }
}

impl std::ops::Mul<f64> for C64 {
    type Output = C64;
    #[inline]
    fn mul(self, s: f64) -> C64 {
        C64 {
            re: self.re * s,
            im: self.im * s,
        }
    }
}
