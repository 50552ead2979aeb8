//@ path: crates/qsnet/src/clock.rs
// Known-bad: host clocks outside bench::sweep.
use std::time::{Instant, SystemTime}; //~ D01 D01

pub fn now_pair() {
    let a = Instant::now(); //~ D01
    let b = SystemTime::now(); //~ D01
    let _ = (a, b);
}
