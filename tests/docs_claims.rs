//! Docs name only commands and Rust paths that exist.
//!
//! Every `cppe <subcommand>` invocation in the user-facing docs and the
//! CI workflows — written `--bin cppe -- <subcommand>` or as inline code
//! `` `cppe <subcommand> …` `` — must name an entry of the dispatch
//! table [`harness::cli::COMMANDS`], and `--bin` may only ever name the
//! one `cppe` binary. Every Rust path in README, DESIGN and EXPERIMENTS
//! that starts with a workspace crate must resolve, segment by segment,
//! to a module file, a `pub` item or a `pub use` re-export.

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

/// Workspace crates; `sim_core` lives in `crates/sim-core`.
const CRATES: &str = "sim_core telemetry gmmu cppe uvm gpu workloads harness";

fn crate_root(name: &str) -> Option<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    CRATES
        .split(' ')
        .any(|c| c == name)
        .then(|| dir.join(name.replace('_', "-")).join("src/lib.rs"))
}

/// Whether a line of `text` (a `pub` line, if `public`) holds the
/// words `<kind> <name>` for one of `kinds`.
fn declares(text: &str, kinds: &[&str], name: &str, public: bool) -> bool {
    let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    text.lines()
        .filter(|l| !public || l.trim_start().starts_with("pub"))
        .any(|l| {
            let w: Vec<&str> = l.split(|c| !ident(c)).filter(|w| !w.is_empty()).collect();
            w.windows(2).any(|p| kinds.contains(&p[0]) && p[1] == name)
        })
}

/// Resolve `segs` inside the module file `file`: a child module file, a
/// `pub` item (whose members must be defined in the same file), or a
/// `pub use` re-export, which is followed.
fn resolve(file: &Path, segs: &[&str]) -> bool {
    let Some((&seg, rest)) = segs.split_first() else {
        return true;
    };
    let text = std::fs::read_to_string(file).unwrap_or_default();
    let dir = match file.file_name().and_then(|n| n.to_str()) {
        Some("lib.rs" | "mod.rs") => file.parent().unwrap().to_path_buf(),
        _ => file.with_extension(""),
    };
    for sub in [dir.join(format!("{seg}.rs")), dir.join(seg).join("mod.rs")] {
        if sub.exists() && declares(&text, &["mod"], seg, false) {
            return resolve(&sub, rest);
        }
    }
    let items = [
        "fn", "struct", "enum", "trait", "type", "const", "static", "mod",
    ];
    if declares(&text, &items, seg, true) {
        // A method or constant, or an enum variant `Name(..)` / `Name,`.
        let variant =
            |l: &str, m: &str| l.strip_prefix(m).is_some_and(|r| r.starts_with(['(', ',']));
        return rest.iter().all(|m| {
            declares(&text, &["fn", "const"], m, false)
                || text.lines().any(|l| variant(l.trim_start(), m))
        });
    }
    for stmt in text.split("pub use ").skip(1) {
        let stmt = &stmt[..stmt.find(';').unwrap_or(stmt.len())];
        let (prefix, names) = match stmt.split_once("::{") {
            Some((p, names)) => (p, names.trim_end_matches('}')),
            None => stmt.rsplit_once("::").unwrap_or(("", stmt)),
        };
        for name in names.split(',') {
            let (orig, alias) = name.split_once(" as ").unwrap_or((name, name));
            if alias.trim() == seg {
                let mut path: Vec<&str> = prefix.split("::").map(str::trim).collect();
                path.push(orig.trim());
                path.extend(rest);
                return match crate_root(path[0]) {
                    Some(other) => resolve(&other, &path[1..]),
                    None => resolve(file, &path),
                };
            }
        }
    }
    false
}

/// The workspace-crate paths in `text` that do not resolve, and how
/// many paths were checked.
fn bad_paths(text: &str) -> (Vec<String>, usize) {
    let ident = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == ':';
    let mut checked = Vec::new();
    for krate in CRATES.split(' ') {
        for (i, _) in text.match_indices(&format!("{krate}::")) {
            if !text[..i].ends_with(ident) {
                let tail = &text[i..];
                checked.push(&tail[..tail.find(|c| !ident(c)).unwrap_or(tail.len())]);
            }
        }
    }
    let bad = checked.iter().filter(|p| {
        let segs: Vec<&str> = p.split("::").filter(|s| !s.is_empty()).collect();
        !resolve(&crate_root(segs[0]).unwrap(), &segs[1..])
    });
    (bad.map(|p| p.to_string()).collect(), checked.len())
}

#[test]
fn documented_rust_paths_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (mut bad, mut seen) = (Vec::new(), 0);
    for doc in ["README.md", "DESIGN.md", "EXPERIMENTS.md"] {
        let (b, n) = bad_paths(&std::fs::read_to_string(root.join(doc)).expect("doc"));
        bad.extend(b.into_iter().map(|p| format!("{doc}: {p}")));
        seen += n;
    }
    assert!(bad.is_empty(), "docs name missing paths: {bad:?}");
    assert!(seen >= 30, "only {seen} paths found: is the scan broken?");
}

#[test]
fn the_path_scan_rejects_what_it_should() {
    let good = "`cppe::evict::mhpe`, `cppe::PolicyEngine::new`, `workloads::LaneItem::Barrier`, \
                `telemetry::PageLedger::from_telemetry`, `harness::{run_cell, CellInputs}`";
    assert_eq!(bad_paths(good), (vec![], 5));
    let bad = "`cppe::mhpe`, `cppe::prefetch::TreeNeighborhood`, not_gpu::x, \
               `cppe::PolicyEngine::no_such_fn`, `harness::runner::private_fn`";
    let (bad, seen) = bad_paths(bad);
    assert_eq!(seen, 4);
    assert_eq!(bad.len(), 4, "{bad:?}");
}
