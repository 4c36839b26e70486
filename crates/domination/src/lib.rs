//! Spatial and probabilistic domination for uncertain objects (§III of the
//! paper).
//!
//! *Spatial* (complete) domination decides, from rectangular uncertainty
//! regions alone, whether `dist(a, r) < dist(b, r)` holds for **every**
//! `a ∈ A, b ∈ B, r ∈ R` — i.e. whether `PDom(A,B,R) = 1` regardless of
//! the attached densities. Two criteria are provided:
//!
//! * [`spatial::dominates_optimal`] — the tight criterion of Corollary 1
//!   (adopted from Emrich et al., SIGMOD'10), which accounts for the
//!   dependency of both distances on the shared reference object `R`;
//! * [`spatial::dominates_minmax`] — the classical
//!   `MaxDist(A,R) < MinDist(B,R)` test, kept as the paper's comparison
//!   baseline (Figure 6).
//!
//! *Probabilistic* domination bounds (`PDomLB ≤ PDom(A,B,R) ≤ PDomUB`)
//! accumulate spatial decisions over disjoint decompositions of the
//! objects' uncertainty regions (Lemmas 1–2); see [`probabilistic`].

pub mod probabilistic;
pub mod spatial;

pub use probabilistic::{pdom_bounds, pdom_bounds_vs_fixed, PDomBounds};
pub use spatial::{
    dominates_minmax, dominates_optimal, DecisionClass, DominationCriterion, OptimalSums,
    PairClassifier,
};
