//! Docs name only commands that exist.
//!
//! Every `cppe <subcommand>` invocation in the user-facing docs and the
//! CI workflows — written `--bin cppe -- <subcommand>` or as inline code
//! `` `cppe <subcommand> …` `` — must name an entry of the dispatch
//! table [`harness::cli::COMMANDS`], and `--bin` may only ever name the
//! one `cppe` binary.

use std::path::{Path, PathBuf};

fn docs() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files: Vec<PathBuf> = [
        "README.md",
        "DESIGN.md",
        "EXPERIMENTS.md",
        ".claude/skills/verify/SKILL.md",
    ]
    .iter()
    .map(|f| root.join(f))
    .collect();
    let workflows = root.join(".github/workflows");
    let mut ymls: Vec<PathBuf> = std::fs::read_dir(&workflows)
        .expect("workflows dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "yml"))
        .collect();
    ymls.sort();
    files.extend(ymls);
    files
}

/// The command-name prefix of a token: `fig8` of ``fig8`,``.
fn name_of(token: &str) -> &str {
    let end = token
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
        .unwrap_or(token.len());
    &token[..end]
}

/// The bad invocations in `text`, and how many invocations were checked.
fn problems(file: &Path, text: &str) -> (Vec<String>, usize) {
    let known: Vec<&str> = harness::cli::COMMANDS.iter().map(|(n, _)| *n).collect();
    let tokens: Vec<&str> = text.split_whitespace().filter(|t| *t != "\\").collect();
    let mut bad = Vec::new();
    // (how it was written, the subcommand token)
    let mut subs = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if *t == "--bin" {
            match tokens.get(i + 1).map(|b| name_of(b)) {
                Some("cppe") if tokens.get(i + 2) == Some(&"--") => {
                    subs.extend(tokens.get(i + 3).map(|s| ("--bin cppe --", *s)));
                }
                Some("cppe") => {}
                other => bad.push(format!("{}: --bin {}", file.display(), other.unwrap_or(""))),
            }
        } else if t.ends_with("`cppe") {
            subs.extend(tokens.get(i + 1).map(|s| ("`cppe", *s)));
        }
    }
    subs.retain(|(_, sub)| !sub.starts_with(['<', '[']));
    for (what, sub) in &subs {
        if !known.contains(&name_of(sub)) {
            bad.push(format!("{}: {what} {sub}", file.display()));
        }
    }
    (bad, subs.len())
}

#[test]
fn documented_invocations_name_real_subcommands() {
    let mut bad = Vec::new();
    let mut seen = 0;
    for file in docs() {
        let text = std::fs::read_to_string(&file)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", file.display()));
        let (b, n) = problems(&file, &text);
        bad.extend(b);
        seen += n;
    }
    assert!(
        bad.is_empty(),
        "docs name missing commands:\n{}",
        bad.join("\n")
    );
    assert!(
        seen >= 20,
        "only {seen} `cppe` invocations found — is the scan broken?"
    );
}

#[test]
fn the_scan_rejects_what_it_should() {
    let f = Path::new("x.md");
    let (bad, seen) = problems(f, "cargo run --bin cppe -- fig8 --quick and `cppe all`");
    assert!(bad.is_empty() && seen == 2, "{bad:?}");
    let (bad, _) = problems(f, "cargo run -p harness --bin fig8 -- --quick");
    assert_eq!(bad, ["x.md: --bin fig8"]);
    let (bad, _) = problems(f, "run `cppe probe` or --bin cppe -- \\\n  cppe-sim");
    assert_eq!(bad, ["x.md: `cppe probe`", "x.md: --bin cppe -- cppe-sim"]);
    let (bad, seen) = problems(f, "(`cppe ablation`, 50 %) and (`cppe probe`, 50 %)");
    assert_eq!((bad, seen), (vec!["x.md: `cppe probe`,".to_string()], 2));
}
