//! `cppe` — every paper table and figure, plus the simulator's tools,
//! behind one command (see `harness::cli`).
fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    harness::cli::main(&args)
}
