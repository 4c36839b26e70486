//! Generating-function machinery for domination counts (§IV of the paper).
//!
//! Three layers:
//!
//! * [`poisson`] — the Poisson-binomial recurrence: the exact distribution
//!   of a sum of independent (non-identical) Bernoulli variables, used by
//!   the Monte-Carlo baseline where per-world probabilities are exact.
//! * [`classic`] — the equivalent classic generating function
//!   `Π (1 − p_i + p_i·x)` with the `O(k·N)` truncation of §IV-C, plus the
//!   *two-regular-GF* bounding scheme the paper's technical report proves
//!   to be looser than the UGF (kept for the ablation benchmark).
//! * [`ugf`] — the paper's novel **Uncertain Generating Function**:
//!   `Π (pLB_i·x + (pUB_i − pLB_i)·y + (1 − pUB_i))`, whose coefficient
//!   `c_{i,j}` is the probability that the count is *certainly* at least
//!   `i` and *possibly* up to `i + j`. (Note: the §IV-C display of the
//!   paper swaps the `y` and constant terms; Example 3 and Equation (1) of
//!   §IV-D fix the convention implemented here.) The implementation is a
//!   flat-arena, zero-allocation-per-factor rewrite; [`mod@reference`] keeps
//!   the original nested-`Vec` transcription as the equivalence oracle
//!   for tests and benches.
//!
//! The shared output type is [`CountDistributionBounds`]: per-`k` lower and
//! upper bounds on `P(count = k)` with the CDF/uncertainty helpers the
//! query layer needs.

pub mod bounds;
pub mod classic;
pub mod poisson;
pub mod reference;
pub mod ugf;

pub use bounds::CountDistributionBounds;
pub use classic::{two_gf_bounds, ClassicGf};
pub use poisson::poisson_binomial;
pub use reference::NestedUgf;
pub use ugf::Ugf;
