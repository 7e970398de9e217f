//! `repro <subcommand> [seed] [--smoke]`: every table and figure of the
//! paper, the ablations and the CI gates, one subcommand each; `repro all`
//! chains the experiments. See `pnats_bench::repro`; `repro --help` lists
//! the subcommands.

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::ExitCode::from(pnats_bench::repro::run(&args))
}
