//! The `bftbcast` binary: a thin shell over
//! [`bftbcast_cli::commands::dispatch`]. See `commands::usage`.

#![forbid(unsafe_code)]

use std::io::{self, Write};

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
        Ok(text) => {
            let mut out = io::stdout().lock();
            match out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
                // A reader that stopped early (`| head`) wants no more.
                Err(e) if e.kind() != io::ErrorKind::BrokenPipe => {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                }
                _ => {}
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
