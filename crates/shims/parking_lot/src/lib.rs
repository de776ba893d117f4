//! Empty stand-in for `parking_lot`: no workspace code uses it; it stays only because `crates/bench/perfbench/Cargo.lock` lists it.
