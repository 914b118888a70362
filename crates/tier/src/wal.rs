//! A deterministic **logical** write-ahead log for the mutation ops.
//!
//! Records describe operations (`upsert key += delta`), not physical page
//! images: replaying them through the same latch-free primitives rebuilds
//! the table bit-identically because every mutation is commutative within
//! an epoch (see `amac_hashtable`'s frozen-boundary discipline). The log
//! is a plain in-memory vector with a **sealed frontier**: records behind
//! the frontier survive a simulated crash, the unsealed tail is lost —
//! exactly the durability contract of group commit, where the frontier
//! advances at commit-group boundaries (the serving layer seals at wave
//! boundaries; see `amac_server::ServeSession::drain_wal`).
//!
//! Costs are charged by the *appender* (the mutation op), not here:
//! `EngineStats::log_bytes` counts [`WalRecord::encoded_len`] per record
//! and `EngineStats::log_stalls` the amortized asymmetric write cost
//! `CostModel::write_latency() / group` (arxiv 1809.09395) — keeping this
//! module pure data, and therefore Miri-checkable in seconds.
//!
//! # Quickstart
//!
//! This doctest is mirrored as the first half of `examples/recovery.rs`:
//!
//! ```
//! use amac_tier::{CostModel, Wal, WalRecord};
//!
//! let mut wal = Wal::new();
//! wal.append(WalRecord::Insert { key: 7, payload: 70 });
//! wal.append(WalRecord::Upsert { key: 7, delta: 5 });
//! wal.seal(); // group commit: both records are now durable
//! wal.append(WalRecord::Delete { key: 7 }); // ...this one is not
//! wal.crash(); // the unsealed tail is lost
//! assert_eq!(wal.sealed(), &[
//!     WalRecord::Insert { key: 7, payload: 70 },
//!     WalRecord::Upsert { key: 7, delta: 5 },
//! ]);
//!
//! // The encoding is fixed-width and round-trips exactly.
//! let bytes: Vec<u8> = wal.sealed().iter().flat_map(|r| r.encode()).collect();
//! assert_eq!(bytes.len() as u64, wal.sealed_bytes());
//! assert_eq!(WalRecord::decode_all(&bytes).unwrap(), wal.sealed());
//!
//! // What the appender charges per record: asymmetric write latency,
//! // amortized over an in-flight window of 10 by group commit.
//! let model = CostModel::default();
//! assert_eq!(model.write_latency(), 16);
//! assert_eq!(model.write_latency().div_ceil(10), 2);
//! ```

/// One logical mutation, as appended by `amac_ops::mutate::MutateOp` and
/// re-applied through the same op by `amac_ops::mutate::replay`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalRecord {
    /// Prepend a fresh `(key, payload)` node unconditionally (no dedup).
    Insert {
        /// Tuple key.
        key: u64,
        /// Tuple payload.
        payload: u64,
    },
    /// Add `delta` to `key`'s payload, creating the tuple if absent.
    Upsert {
        /// Tuple key.
        key: u64,
        /// Wrapping payload increment.
        delta: u64,
    },
    /// Tombstone every live tuple with `key`.
    Delete {
        /// Tuple key.
        key: u64,
    },
}

impl Default for WalRecord {
    fn default() -> Self {
        WalRecord::Upsert { key: 0, delta: 0 }
    }
}

const TAG_INSERT: u8 = 1;
const TAG_UPSERT: u8 = 2;
const TAG_DELETE: u8 = 3;

impl WalRecord {
    /// The key this record mutates.
    #[inline]
    pub fn key(&self) -> u64 {
        match *self {
            WalRecord::Insert { key, .. }
            | WalRecord::Upsert { key, .. }
            | WalRecord::Delete { key } => key,
        }
    }

    /// Encoded size in bytes: one tag byte plus the fixed-width
    /// little-endian fields. This is what mutation ops charge to
    /// `EngineStats::log_bytes` per append.
    #[inline]
    pub fn encoded_len(&self) -> u64 {
        match self {
            WalRecord::Insert { .. } | WalRecord::Upsert { .. } => 17,
            WalRecord::Delete { .. } => 9,
        }
    }

    /// Serialize to the fixed-width on-log form.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len() as usize);
        match *self {
            WalRecord::Insert { key, payload } => {
                out.push(TAG_INSERT);
                out.extend_from_slice(&key.to_le_bytes());
                out.extend_from_slice(&payload.to_le_bytes());
            }
            WalRecord::Upsert { key, delta } => {
                out.push(TAG_UPSERT);
                out.extend_from_slice(&key.to_le_bytes());
                out.extend_from_slice(&delta.to_le_bytes());
            }
            WalRecord::Delete { key } => {
                out.push(TAG_DELETE);
                out.extend_from_slice(&key.to_le_bytes());
            }
        }
        out
    }

    /// Decode one record from the front of `bytes`, returning it and the
    /// number of bytes consumed. `None` on a truncated or unknown-tag
    /// prefix (a torn tail write).
    pub fn decode(bytes: &[u8]) -> Option<(WalRecord, usize)> {
        let tag = *bytes.first()?;
        let word = |at: usize| -> Option<u64> {
            Some(u64::from_le_bytes(bytes.get(at..at + 8)?.try_into().ok()?))
        };
        match tag {
            TAG_INSERT => Some((WalRecord::Insert { key: word(1)?, payload: word(9)? }, 17)),
            TAG_UPSERT => Some((WalRecord::Upsert { key: word(1)?, delta: word(9)? }, 17)),
            TAG_DELETE => Some((WalRecord::Delete { key: word(1)? }, 9)),
            _ => None,
        }
    }

    /// Decode a whole log segment. `None` if any record is torn or has an
    /// unknown tag.
    pub fn decode_all(mut bytes: &[u8]) -> Option<Vec<WalRecord>> {
        let mut out = Vec::new();
        while !bytes.is_empty() {
            let (rec, used) = WalRecord::decode(bytes)?;
            out.push(rec);
            bytes = &bytes[used..];
        }
        Some(out)
    }
}

/// An append-only record log with a sealed (durable) frontier.
#[derive(Debug, Clone, Default)]
pub struct Wal {
    records: Vec<WalRecord>,
    sealed: usize,
}

impl Wal {
    /// An empty log.
    pub fn new() -> Self {
        Wal::default()
    }

    /// Append one record to the unsealed tail.
    #[inline]
    pub fn append(&mut self, rec: WalRecord) {
        self.records.push(rec);
    }

    /// Append a drained segment (e.g. one serving wave's records).
    pub fn extend(&mut self, recs: impl IntoIterator<Item = WalRecord>) {
        self.records.extend(recs);
    }

    /// Group commit: advance the durable frontier over everything
    /// appended so far.
    #[inline]
    pub fn seal(&mut self) {
        self.sealed = self.records.len();
    }

    /// Simulated crash: the unsealed tail never reached the log device
    /// and is discarded.
    pub fn crash(&mut self) {
        self.records.truncate(self.sealed);
    }

    /// The durable prefix — what recovery replays.
    #[inline]
    pub fn sealed(&self) -> &[WalRecord] {
        &self.records[..self.sealed]
    }

    /// Records appended since the last [`seal`](Wal::seal).
    #[inline]
    pub fn unsealed(&self) -> &[WalRecord] {
        &self.records[self.sealed..]
    }

    /// Total records (sealed + unsealed).
    #[inline]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records were ever appended.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Encoded size of the durable prefix in bytes.
    pub fn sealed_bytes(&self) -> u64 {
        self.sealed().iter().map(WalRecord::encoded_len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let recs = [
            WalRecord::Insert { key: u64::MAX - 1, payload: 3 },
            WalRecord::Upsert { key: 0, delta: u64::MAX },
            WalRecord::Delete { key: 42 },
        ];
        for r in recs {
            let bytes = r.encode();
            assert_eq!(bytes.len() as u64, r.encoded_len());
            let (back, used) = WalRecord::decode(&bytes).expect("decodes");
            assert_eq!(back, r);
            assert_eq!(used, bytes.len());
        }
        let all: Vec<u8> = recs.iter().flat_map(WalRecord::encode).collect();
        assert_eq!(WalRecord::decode_all(&all).expect("segment decodes"), recs);
    }

    #[test]
    fn torn_and_unknown_prefixes_are_rejected() {
        let full = WalRecord::Upsert { key: 9, delta: 9 }.encode();
        for cut in 1..full.len() {
            assert_eq!(WalRecord::decode(&full[..cut]), None, "torn at {cut}");
        }
        assert_eq!(WalRecord::decode(&[0xFF]), None, "unknown tag");
        assert_eq!(WalRecord::decode_all(&full[..5]), None);
    }

    #[test]
    fn seal_frontier_survives_crash_and_tail_is_lost() {
        let mut wal = Wal::new();
        wal.append(WalRecord::Insert { key: 1, payload: 10 });
        wal.append(WalRecord::Upsert { key: 1, delta: 1 });
        wal.seal();
        wal.extend([WalRecord::Delete { key: 1 }, WalRecord::Upsert { key: 2, delta: 2 }]);
        assert_eq!(wal.len(), 4);
        assert_eq!(wal.unsealed().len(), 2);
        wal.crash();
        assert_eq!(wal.len(), 2);
        assert_eq!(wal.unsealed(), &[]);
        assert_eq!(
            wal.sealed(),
            &[WalRecord::Insert { key: 1, payload: 10 }, WalRecord::Upsert { key: 1, delta: 1 }]
        );
        assert_eq!(wal.sealed_bytes(), 34);
        assert!(!wal.is_empty());
    }

    #[test]
    fn default_record_is_a_no_op_upsert() {
        assert_eq!(WalRecord::default(), WalRecord::Upsert { key: 0, delta: 0 });
        assert_eq!(WalRecord::default().key(), 0);
    }
}
