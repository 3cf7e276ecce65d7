//! The repository benchmark: three fixed workloads (`mpc-sweep`,
//! `feedback-sweep`, `serve-mixed`) measured end to end, plus a traced
//! run that splits the time by layer. See `perfbench/README.md`.

pub mod env;
pub mod metrics;
pub mod obs;
pub mod replay;
pub mod run;
pub mod serve;
pub mod stats;
pub mod sweep;
pub mod workload;
