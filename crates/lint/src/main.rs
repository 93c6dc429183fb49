//! CLI driver.
//!
//! ```text
//! cmt-lint --workspace                 # analyze every crate's src tree
//! cmt-lint path/to/dir file.rs ...     # analyze explicit paths
//! cmt-lint --list-rules
//! ```
//!
//! Exit codes: 0 clean, 1 findings, 2 usage/IO error.

use std::path::PathBuf;
use std::process::ExitCode;

use cmt_lint::diag::RULES;

fn main() -> ExitCode {
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut workspace = false;

    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--list-rules" => {
                for (code, summary) in RULES {
                    println!("{code}  {summary}");
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                print_help();
                return ExitCode::SUCCESS;
            }
            _ if arg.starts_with('-') => {
                eprintln!("error: unknown flag `{arg}`");
                print_help();
                return ExitCode::from(2);
            }
            _ => paths.push(PathBuf::from(arg)),
        }
    }

    if workspace {
        let root = std::env::current_dir()
            .ok()
            .and_then(|cwd| cmt_lint::find_workspace_root(&cwd));
        let Some(root) = root else {
            eprintln!("error: --workspace needs to run inside the workspace");
            return ExitCode::from(2);
        };
        paths.extend(cmt_lint::workspace_source_roots(&root));
    }
    if paths.is_empty() {
        eprintln!("error: nothing to analyze (pass --workspace or explicit paths)");
        print_help();
        return ExitCode::from(2);
    }

    match cmt_lint::analyze(&paths) {
        Ok(diags) if diags.is_empty() => {
            println!("cmt-lint: clean ({} rule families)", RULES.len());
            ExitCode::SUCCESS
        }
        Ok(diags) => {
            for d in &diags {
                println!("{d}");
            }
            println!("cmt-lint: {} finding(s)", diags.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: analysis failed: {e}");
            ExitCode::from(2)
        }
    }
}

fn print_help() {
    println!(
        "cmt-lint: static analyzer for the CMT-bone workspace\n\
         \n\
         USAGE: cmt-lint [--workspace] [PATH ...] [--list-rules]\n\
         \n\
         OPTIONS:\n\
           --workspace          analyze every crate's src/ tree\n\
           --list-rules         print the rule table\n\
         \n\
         In-source escape hatch: `// cmt-lint: allow(CMT-L001)` on the\n\
         finding's line or in the comment block introducing its\n\
         statement, or (file-wide) in the first 15 lines of the file."
    );
}
