//! Memory substrate for the AMAC reproduction.
//!
//! The paper's techniques (AMAC, GP, SPP) are all built on three low-level
//! capabilities that this crate provides:
//!
//! * **software prefetch** — issuing a non-blocking cache-line fetch for an
//!   address that will be dereferenced a few hundred cycles later
//!   ([`prefetch`]);
//! * **cache-line aligned, pointer-stable node storage** — the paper aligns
//!   every data-structure node to a 64-byte cache block ([`arena`],
//!   [`align`]), all of it allocated as [`region`]s that the kernel may
//!   back with huge pages, so a prefetch does not wait for a page walk;
//! * **1-byte test-and-set latches** used by the hash-join build, group-by
//!   and skip-list insert code paths ([`latch`]).
//!
//! It also hosts the dependency-free integer hashing and small PRNGs shared
//! by the data-structure crates ([`hash`], [`rng`]), and the ordered
//! indexes' search contract ([`cursor`]).

pub mod align;
pub mod arena;
pub mod cursor;
pub mod hash;
pub mod latch;
pub mod prefetch;
pub mod region;
pub mod rng;

pub use align::CACHE_LINE;
pub use arena::{slab_of_index, Arena, IndexedArena, VarArena, NULL_INDEX};
pub use cursor::{Cursor, Move, HOT_BYTES};
pub use latch::Latch;
pub use prefetch::{prefetch_read, prefetch_read_t0, prefetch_write};
pub use region::{Region, HUGE_PAGE};
