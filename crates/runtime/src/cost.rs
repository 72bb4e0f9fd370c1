//! Per-run memo of backend cost queries, shared by every engine.
//!
//! A serving run asks its backend for the same few shapes over and over:
//! every launched batch of a given `(seq_len, batch)` and every decode
//! iteration of a given `(context_len, batch)` costs the same, and a run
//! has far fewer distinct shapes than launches. [`CostMemo`] asks the
//! backend once per distinct argument list and answers repeats from a
//! table.
//!
//! This is sound because of the [`Backend`] contract — evaluation is
//! deterministic and side-effect free — and because the key is the full
//! argument list of a backend fixed for the memo's lifetime, so a hit
//! returns exactly what a fresh call would. Errors propagate on the miss
//! that caused them and are never stored.

use crate::Result;
use hyflex_pim::backend::Backend;
use hyflex_pim::perf::BatchPerfSummary;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Memoized cost queries against one backend.
///
/// The tables are `BTreeMap`s rather than hash maps: lookups are key-exact,
/// so iteration order never matters today, but the determinism policy
/// (lint rule D1) bans hash-ordered containers in runtime code outright so
/// a future iteration can never silently order-depend.
pub(crate) struct CostMemo {
    backend: Arc<dyn Backend>,
    /// `(seq_len, batch)` → [`Backend::evaluate_batched`].
    batched: BTreeMap<(usize, usize), BatchPerfSummary>,
    /// `(context_len, batch)` → [`Backend::evaluate_decode_step`].
    decode_step: BTreeMap<(usize, usize), BatchPerfSummary>,
}

impl CostMemo {
    /// An empty memo over `backend`.
    pub(crate) fn new(backend: Arc<dyn Backend>) -> Self {
        CostMemo {
            backend,
            batched: BTreeMap::new(),
            decode_step: BTreeMap::new(),
        }
    }

    /// [`Backend::evaluate_batched`]`(seq_len, batch_size)`, evaluated once
    /// per distinct argument pair.
    ///
    /// # Errors
    ///
    /// Propagates the backend's error on a miss.
    pub(crate) fn batched(
        &mut self,
        seq_len: usize,
        batch_size: usize,
    ) -> Result<&BatchPerfSummary> {
        let backend = &self.backend;
        lookup(&mut self.batched, (seq_len, batch_size), || {
            backend.evaluate_batched(seq_len, batch_size)
        })
    }

    /// [`Backend::evaluate_decode_step`]`(context_len, batch_size)`,
    /// evaluated once per distinct argument pair.
    ///
    /// # Errors
    ///
    /// Propagates the backend's error on a miss.
    pub(crate) fn decode_step(
        &mut self,
        context_len: usize,
        batch_size: usize,
    ) -> Result<&BatchPerfSummary> {
        let backend = &self.backend;
        lookup(&mut self.decode_step, (context_len, batch_size), || {
            backend.evaluate_decode_step(context_len, batch_size)
        })
    }
}

fn lookup(
    table: &mut BTreeMap<(usize, usize), BatchPerfSummary>,
    key: (usize, usize),
    evaluate: impl FnOnce() -> hyflex_pim::Result<BatchPerfSummary>,
) -> Result<&BatchPerfSummary> {
    Ok(match table.entry(key) {
        Entry::Occupied(entry) => entry.into_mut(),
        Entry::Vacant(entry) => entry.insert(evaluate()?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyflex_pim::backend::HyFlexPim;
    use hyflex_transformer::ModelConfig;

    #[test]
    fn hits_equal_fresh_calls_and_errors_are_not_cached() {
        let backend: Arc<dyn Backend> =
            Arc::new(HyFlexPim::paper(ModelConfig::bert_base(), 0.05).unwrap());
        let mut memo = CostMemo::new(Arc::clone(&backend));
        for _ in 0..2 {
            assert_eq!(
                memo.batched(64, 4).unwrap(),
                &backend.evaluate_batched(64, 4).unwrap()
            );
            assert_eq!(
                memo.decode_step(65, 4).unwrap(),
                &backend.evaluate_decode_step(65, 4).unwrap()
            );
            // The two tables never alias: the same key prices differently.
            let prefill = memo.batched(65, 4).unwrap().clone();
            assert_ne!(&prefill, memo.decode_step(65, 4).unwrap());
            assert!(memo.batched(64, 0).is_err());
            assert!(memo.decode_step(0, 4).is_err());
        }
        assert_eq!(memo.batched.len(), 2);
        assert_eq!(memo.decode_step.len(), 1);
    }
}
