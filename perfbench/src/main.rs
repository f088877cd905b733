//! The benchmark binary; see `perfbench::run` and `README.md`.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(perfbench::run(&args));
}
