//! End-to-end benchmark of the paper's stack (`stacks::indirect_ct`) over
//! the real `TcpCluster`: wall-clock a-broadcast → a-deliver, checked for
//! correctness on every run, with a per-layer stage ledger measured from
//! outside the program in a separate traced run.
//!
//! Run it from the repository root:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paced-64b-n3 --seed 1 --seconds 10 --trace 0
//! ```

pub mod echo;
pub mod gate;
pub mod hist;
pub mod procstat;
pub mod report;
pub mod run;
pub mod trace;
