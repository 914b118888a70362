//! Workload generation for the AMAC reproduction.
//!
//! Reproduces the paper's input relations (§4 *Workloads*):
//!
//! * 16-byte tuples: 8-byte integer key + 8-byte integer payload,
//!   "representative of an in-memory columnar database storage
//!   representation";
//! * build relations with dense unique keys, probe relations restricted to
//!   the build key range (foreign-key relationship);
//! * Zipf-skewed key distributions with factors 0.5, 0.75 and 1
//!   ([`zipf::ZipfSampler`], Hörmann rejection-inversion — O(1) per draw so
//!   paper-scale domains of 2^27 keys need no giant CDF table);
//! * group-by inputs where every key appears a fixed number of times
//!   (3 in the paper);
//! * unique uniformly-distributed key sets for the BST and skip-list
//!   workloads.
//!
//! Beyond the paper's inputs, the pipeline experiments add
//! [`filter::FilterSpec`] (a selectivity-controlled virtual filter
//! column) and [`Relation::fk_dimension`] (dimension tables whose
//! payloads are foreign keys, for multi-join chains), and the serving
//! experiments add [`arrival`]: deterministic Poisson arrival processes
//! and uniform/Zipf tenant mixes for open-loop multi-query load.

#![forbid(unsafe_code)]

pub mod arrival;
pub mod feistel;
pub mod filter;
pub mod gen;
pub mod tuple;
pub mod zipf;

pub use arrival::{PoissonArrivals, TenantMix};
pub use feistel::FeistelPermutation;
pub use filter::FilterSpec;
pub use gen::GroupByInput;
pub use tuple::{Relation, Tuple};
pub use zipf::ZipfSampler;
