//! The benchmark binary for traced runs: identical to `perfbench`, with
//! the allocation-tracking global allocator installed so each engine
//! span reports the bytes it allocated.

#[global_allocator]
static ALLOC: cognicryptgen::core::TrackingAlloc = cognicryptgen::core::TrackingAlloc::new();

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(perfbench::run(&args));
}
