//! `raxpp-models` — small executable workloads: [`mlp_chain`] and
//! [`tiny_lm`] trace real networks (attention, layer norm, residuals,
//! tied embeddings) over `raxpp-ir` for end-to-end training through the
//! MPMD runtime, with the synthetic data that feeds them. The analytic
//! descriptions of the paper's GPT-3 / Llama2 workloads live with the
//! cluster model in `raxpp-simcluster`.

#![warn(missing_docs)]

mod builders;
mod data;

pub use builders::{causal_mask, mlp_chain, one_hot, tiny_lm, BuiltModel, TinyLmConfig};
pub use data::{lm_batches, CharVocab, SyntheticTask};
