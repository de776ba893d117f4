//! Empty stand-in for `crossbeam`: no workspace code uses it; it stays only because `crates/bench/perfbench/Cargo.lock` lists it.
