//! Shared plumbing for the structure-of-arrays batch ingestion paths.
//!
//! The batch `update_batch` implementations in this crate all follow the
//! same shape: reduce a bounded chunk of raw inputs into the hash field
//! once, evaluate each hash function over the whole chunk with the SWAR
//! kernels in `sss_hash::batch` into flat index/sign buffers, then sweep the
//! counter grid row-by-row (or item-by-item where admission order matters).
//! [`BatchScratch`] holds the intermediate buffers so a long-lived sketch
//! never reallocates them between batches; [`BATCH_CHUNK`] bounds them.
//!
//! Scratch is pure working memory: it never affects a sketch's logical
//! state, is excluded from the wire codecs, and clones as empty (so
//! snapshots and shard forks don't drag dead buffers along).

use sss_hash::FieldPowers;

/// Maximum number of items processed per internal chunk of a batch pass.
/// Bounds scratch memory to a few KiB per one-chunk buffer so the
/// index/sign arrays stay cache-resident while a row is swept (the `F_2`
/// admission buffers hold `depth` chunks' worth).
pub(crate) const BATCH_CHUNK: usize = 1024;

/// Reusable per-sketch scratch for batch passes. Field use varies by
/// sketch; unused fields stay empty and cost nothing.
#[derive(Debug, Default)]
pub(crate) struct BatchScratch {
    /// Chunk inputs reduced into the hash field (`x mod (2^61 − 1)`).
    pub xr: Vec<u64>,
    /// Chunk residues with their squares and cubes, for sketches that
    /// evaluate degree-3 sign rows.
    pub powers: FieldPowers,
    /// Bucket indices; either one chunk's worth (row-major sweeps reuse it
    /// per row) or `depth × chunk` when a serial per-item pass needs every
    /// row's index at once.
    pub idx: Vec<usize>,
    /// `±1` signs, one chunk's worth.
    pub signs: Vec<i64>,
    /// `F_2` admission: each item's post-update signed row value `s·c`,
    /// `depth × chunk`, row-major.
    pub vals: Vec<i64>,
    /// `F_2` admission: each row's running Σc² after each item, laid out
    /// like `vals`.
    pub sumsq: Vec<u128>,
    /// `F_2` admission: per item, the largest row value.
    pub hi: Vec<i64>,
    /// `F_2` admission: per item, the smallest row Σc².
    pub lo: Vec<u128>,
    /// One item's row values, gathered for its point-query median.
    pub item_vals: Vec<i64>,
    /// One item's row sums, gathered for its `F_2` median.
    pub item_sumsq: Vec<u128>,
}

impl Clone for BatchScratch {
    /// Cloning a sketch (snapshots, shard forks) starts with empty scratch;
    /// buffers regrow lazily on the next batch.
    fn clone(&self) -> Self {
        Self::default()
    }
}
