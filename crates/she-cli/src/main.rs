//! `she` — run any SHE task from the command line.
//!
//! The list of subcommands, their flags and the exit codes is
//! [`run::USAGE`], which `she help` prints; nothing repeats it here.

mod args;
mod run;

use args::Args;

fn main() {
    let tokens: Vec<String> = std::env::args().skip(1).collect();
    if tokens.is_empty() || tokens[0] == "--help" || tokens[0] == "help" {
        print!("{}", run::USAGE);
        return;
    }
    let parsed = match Args::parse(&tokens) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("run `she help` for usage");
            std::process::exit(2);
        }
    };
    if let Err(e) = run::dispatch(&parsed) {
        eprintln!("error: {e}");
        std::process::exit(e.code);
    }
}
