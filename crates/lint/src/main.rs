#![cfg_attr(not(test), deny(clippy::unwrap_used))]

//! `ts-lint` — the workspace determinism & robustness static-analysis gate.
//!
//! ```text
//! ts-lint [--root DIR] [--format text|json] [--out FILE] [--show-suppressed]
//! ```
//!
//! Exit codes: 0 = no live finding, 1 = at least one live finding,
//! 2 = usage or I/O error.
//!
//! Default root is the enclosing cargo workspace (found by walking up from
//! the current directory).

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use ts_lint::{is_clean, render_json, render_text, scan_root};

struct Opts {
    root: Option<PathBuf>,
    json: bool,
    out: Option<PathBuf>,
    show_suppressed: bool,
}

fn usage() -> ! {
    eprintln!("usage: ts-lint [--root DIR] [--format text|json] [--out FILE] [--show-suppressed]");
    std::process::exit(2);
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        root: None,
        json: false,
        out: None,
        show_suppressed: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let path_arg = |args: &mut dyn Iterator<Item = String>| -> PathBuf {
            match args.next() {
                Some(v) => PathBuf::from(v),
                None => usage(),
            }
        };
        match a.as_str() {
            "--root" => opts.root = Some(path_arg(&mut args)),
            "--out" => opts.out = Some(path_arg(&mut args)),
            "--format" => match args.next().as_deref() {
                Some("json") => opts.json = true,
                Some("text") => opts.json = false,
                _ => usage(),
            },
            "--show-suppressed" => opts.show_suppressed = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("ts-lint: unknown argument {other:?}");
                usage();
            }
        }
    }
    opts
}

/// Walk upward from `start` to the enclosing `[workspace]` Cargo.toml.
fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

fn main() -> ExitCode {
    let opts = parse_args();

    let root = match &opts.root {
        Some(r) => r.clone(),
        None => {
            let cwd = std::env::current_dir().unwrap_or_else(|e| {
                eprintln!("ts-lint: cannot read current dir: {e}");
                std::process::exit(2);
            });
            // Fall back to the source checkout this binary was built from
            // (crates/lint two levels below the root).
            find_workspace_root(&cwd)
                .or_else(|| {
                    Path::new(env!("CARGO_MANIFEST_DIR"))
                        .ancestors()
                        .nth(2)
                        .map(Path::to_path_buf)
                })
                .unwrap_or_else(|| {
                    eprintln!("ts-lint: no enclosing cargo workspace; pass --root");
                    std::process::exit(2);
                })
        }
    };

    let findings = match scan_root(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("ts-lint: scan failed under {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    let report = if opts.json {
        render_json(&findings)
    } else {
        render_text(&findings, opts.show_suppressed)
    };
    if let Some(out) = &opts.out {
        if let Err(e) = std::fs::write(out, &report) {
            eprintln!("ts-lint: cannot write {}: {e}", out.display());
            return ExitCode::from(2);
        }
        // Keep the human summary on stdout even when the JSON went to a file.
        if opts.json {
            print!("{}", render_text(&findings, opts.show_suppressed));
        }
    } else {
        print!("{report}");
    }

    if is_clean(&findings) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
