//! # amac-btree — bulk-loaded cache-conscious B+-tree
//!
//! A static B+-tree with two-cache-line (128-byte) nodes, bulk-loaded
//! perfectly balanced so that every lookup dereferences exactly
//! [`BPlusTree::height`] nodes.
//!
//! ## Why a *balanced* tree in an AMAC reproduction?
//!
//! The paper's §5.3 tree experiment uses a random **unbalanced** BST
//! precisely because its variable lookup depth defeats static prefetch
//! schedules. This crate provides the *regular* counterpart the paper's
//! argument implies (and its citations [10, 16, 23] build): with bulk-load
//! balance the static stage budget `N = height` fits **every** lookup, so
//! GP and SPP lose nothing to no-ops or bailouts. Benchmarking both trees
//! with the same executors isolates *irregularity itself* as the variable —
//! see `bench btree_sweep`.
//!
//! Nodes deliberately keep the dependent-access property: the next node's
//! address is only known after the current node's keys are compared, so
//! tree descent stays a pointer chase that hardware prefetchers cannot
//! cover.
//!
//! ## Per-node kernel
//!
//! A search runs as a [`BTreeCursor`] (the crate's `amac_mem::Cursor`): stage 0 walks the tree's *hot
//! prefix* ([`BPlusTree::hot_levels`], the top inner levels whose nodes
//! fit in `amac_mem::HOT_BYTES` and that every lookup reads again)
//! inline, with no prefetch and no yield, and prefetches the node below;
//! each later stage visits one node. [`prefetch_node`] fetches both lines of a node with `PREFETCHT0`, not
//! the paper's `PREFETCHNTA` (§4): every lookup walks the same upper
//! levels again, and an NTA fill that leaves L1 is not kept in L2.
//! [`InnerNode::select_child`] is a branchy scan and [`LeafNode::lookup`]
//! a branch-free key mask; their docs give the measured reasons.

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(clippy::undocumented_unsafe_blocks)]

mod node;
mod tree;

pub use node::{prefetch_node, InnerNode, LeafNode, FANOUT_CHILDREN, FANOUT_KEYS};
pub use tree::{BPlusTree, BTreeCursor, BTreeStats};
