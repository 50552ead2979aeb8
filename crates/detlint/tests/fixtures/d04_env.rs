//@ path: crates/storm/src/envread.rs
// Known-bad: process-environment reads outside bench.
pub fn bad() -> Option<String> {
    let v = std::env::var("STORM_DEBUG").ok(); //~ D04
    let w = std::env::var_os("STORM_TRACE"); //~ D04
    let _ = w;
    v
}
