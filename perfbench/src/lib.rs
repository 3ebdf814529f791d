#![forbid(unsafe_code)]
//! # perfbench — the repository's end-to-end and per-layer benchmark
//!
//! One command (`python3 perfbench/run.py --workload <name> --seed <n>
//! --seconds <s> --trace <0|1>`) builds this package and runs one
//! workload. With `--trace 0` it times the path users take and prints
//! every end-to-end metric; with `--trace 1` it replays one run layer by
//! layer and prints every per-layer metric. Either way the last line of
//! standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! See `perfbench/README.md` for the workloads and the metric map.

pub mod catalog;
pub mod inputs;
pub mod serve;
pub mod solo;
pub mod stats;
pub mod trace;
