//! The `bftbcast` binary: a thin shell over
//! [`bftbcast_cli::commands::dispatch`]. See `commands::usage`.

#![forbid(unsafe_code)]

use bftbcast_cli::{args, commands};

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match args::Args::parse(raw) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    match commands::dispatch(&parsed) {
        Ok(text) => print!("{text}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
