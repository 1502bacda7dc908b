//! `cargo xtask` — workspace automation CLI.

#![forbid(unsafe_code)]

use std::collections::HashSet;
use std::path::PathBuf;
use std::process::ExitCode;

use xtask::audit::AUDIT_RULES;
use xtask::determinism::DETERMINISM_RULES;
use xtask::hotpath::HOTPATH_RULES;
use xtask::scan::Tool;
use xtask::{
    audit_root, changed_files, determinism_root, hotpath_root, lint_root, waiver_inventory, Report,
    Rule,
};

const USAGE: &str = "\
cargo xtask <task>

tasks:
  lint   [--json] [--root <dir>] [--changed]
         check the panic-freedom / NaN-safety policy
  audit  [--json] [--root <dir>] [--changed]
         check the concurrency / resource-safety policy
         (lock-discipline, atomic-ordering, thread-hygiene, wire-alloc)
  hotpath [--json] [--root <dir>] [--changed]
         check allocation/blocking discipline in functions reachable
         from the pipeline stage roots and net dispatch
         (hot-alloc, hot-block)
  determinism [--json] [--root <dir>] [--changed]
         check reproducibility discipline: nondeterminism sources
         taint-tracked toward persist/wire/telemetry sinks
         (unordered-iter, rng-discipline, time-taint,
         float-reduction, addr-hash)
  waivers [--json] [--root <dir>]
         list every lint/audit/hotpath/determinism waiver in the
         tree; fails on malformed waivers (missing reason, unknown
         rule) and on stale ones (no finding of the rule on the
         line they excuse)

flags:
  --json     emit machine-readable output
  --root     override the workspace root
  --changed  report only on files differing from the merge-base with
             main (hotpath and determinism still build their call
             graphs over the full tree)
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => scan_command(Tool::Lint, &args[1..]),
        Some("audit") => scan_command(Tool::Audit, &args[1..]),
        Some("hotpath") => scan_command(Tool::Hotpath, &args[1..]),
        Some("determinism") => scan_command(Tool::Determinism, &args[1..]),
        Some("waivers") => waivers_command(&args[1..]),
        Some(other) => {
            eprintln!("unknown task `{other}`\n{USAGE}");
            ExitCode::from(2)
        }
        None => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Parsed common flags.
struct Flags {
    json: bool,
    root: PathBuf,
    changed: bool,
}

/// Parses `[--json] [--root <dir>] [--changed]`, validating the root.
fn parse_flags(task: &str, args: &[String], allow_changed: bool) -> Result<Flags, ExitCode> {
    let mut json = false;
    let mut root: Option<PathBuf> = None;
    let mut changed = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--changed" if allow_changed => changed = true,
            "--root" => match it.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("--root requires a directory\n{USAGE}");
                    return Err(ExitCode::from(2));
                }
            },
            other => {
                eprintln!("unknown flag `{other}`\n{USAGE}");
                return Err(ExitCode::from(2));
            }
        }
    }
    let root = root.unwrap_or_else(workspace_root);
    if !root.join("crates").is_dir() {
        // A typo'd --root would otherwise scan zero files and pass.
        eprintln!(
            "xtask {task}: `{}` has no crates/ directory — not a workspace root",
            root.display()
        );
        return Err(ExitCode::from(2));
    }
    Ok(Flags {
        json,
        root,
        changed,
    })
}

fn scan_command(tool: Tool, args: &[String]) -> ExitCode {
    let flags = match parse_flags(tool.name(), args, true) {
        Ok(f) => f,
        Err(code) => return code,
    };

    let changed_set: Option<HashSet<PathBuf>> = if flags.changed {
        match changed_files(&flags.root) {
            Ok(set) => Some(set),
            Err(e) => {
                eprintln!("xtask {}: --changed: {e}", tool.name());
                return ExitCode::from(2);
            }
        }
    } else {
        None
    };

    let run = match tool {
        Tool::Lint => lint_root(&flags.root, changed_set.as_ref()),
        Tool::Audit => audit_root(&flags.root, changed_set.as_ref()),
        Tool::Hotpath => hotpath_root(&flags.root, changed_set.as_ref()),
        Tool::Determinism => determinism_root(&flags.root, changed_set.as_ref()),
    };
    let report = match run {
        Ok(report) => report,
        Err(e) => {
            eprintln!("xtask {}: {e}", tool.name());
            return ExitCode::from(2);
        }
    };

    if flags.json {
        println!("{}", render_json(&report));
    } else {
        render_text(tool, &report);
    }

    if report.unwaived_count() > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn waivers_command(args: &[String]) -> ExitCode {
    let flags = match parse_flags("waivers", args, false) {
        Ok(f) => f,
        Err(code) => return code,
    };
    let inventory = match waiver_inventory(&flags.root, None) {
        Ok(inv) => inv,
        Err(e) => {
            eprintln!("xtask waivers: {e}");
            return ExitCode::from(2);
        }
    };

    // Cross-reference against all passes: a waiver is "active" when a
    // finding of its rule sits on its target line, "stale" otherwise
    // (the code it excused has moved or been fixed, so the waiver must
    // move or go). Stale waivers and unknown rule names, which can
    // never match, are hard errors.
    let lint_rules = [
        Rule::Unwrap.name(),
        Rule::FloatCmp.name(),
        Rule::ForbidUnsafe.name(),
        Rule::LossyCast.name(),
    ];
    let reports = match (
        lint_root(&flags.root, None),
        audit_root(&flags.root, None),
        hotpath_root(&flags.root, None),
        determinism_root(&flags.root, None),
    ) {
        (Ok(l), Ok(a), Ok(h), Ok(d)) => (l, a, h, d),
        (Err(e), _, _, _) | (_, Err(e), _, _) | (_, _, Err(e), _) | (_, _, _, Err(e)) => {
            eprintln!("xtask waivers: {e}");
            return ExitCode::from(2);
        }
    };
    let waived_sites: HashSet<(Tool, &str, usize, &str)> = [
        (Tool::Lint, &reports.0),
        (Tool::Audit, &reports.1),
        (Tool::Hotpath, &reports.2),
        (Tool::Determinism, &reports.3),
    ]
    .into_iter()
    .flat_map(|(tool, report)| {
        report
            .findings
            .iter()
            .filter(|f| f.waiver.is_some())
            .map(move |f| (tool, f.file.as_str(), f.line, f.rule))
    })
    .collect();

    let mut unknown_rule = 0usize;
    let mut stale = 0usize;
    let statuses: Vec<&'static str> = inventory
        .entries
        .iter()
        .map(|e| {
            let known = match e.waiver.tool {
                Tool::Lint => lint_rules.contains(&e.waiver.rule.as_str()),
                Tool::Audit => AUDIT_RULES.contains(&e.waiver.rule.as_str()),
                Tool::Hotpath => HOTPATH_RULES.contains(&e.waiver.rule.as_str()),
                Tool::Determinism => DETERMINISM_RULES.contains(&e.waiver.rule.as_str()),
            };
            if !known {
                unknown_rule += 1;
                return "unknown-rule";
            }
            let active = e.target.is_some_and(|t| {
                waived_sites.contains(&(e.waiver.tool, e.file.as_str(), t, e.waiver.rule.as_str()))
            });
            if active {
                "active"
            } else {
                stale += 1;
                "stale"
            }
        })
        .collect();

    if flags.json {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"files_scanned\": {},\n  \"waivers\": {},\n  \"malformed\": {},\n  \"unknown_rule\": {unknown_rule},\n  \"stale\": {stale},\n  \"entries\": [",
            inventory.files_scanned,
            inventory.entries.len(),
            inventory.malformed.len(),
        ));
        for (i, (e, status)) in inventory.entries.iter().zip(&statuses).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"file\": {}, \"line\": {}, \"tool\": {}, \"rule\": {}, \"reason\": {}, \"inline\": {}, \"status\": {}}}",
                json_str(&e.file),
                e.waiver.line,
                json_str(e.waiver.tool.name()),
                json_str(&e.waiver.rule),
                json_str(&e.waiver.reason),
                e.waiver.inline,
                json_str(status),
            ));
        }
        out.push_str(if inventory.entries.is_empty() {
            "],\n  \"malformed_entries\": ["
        } else {
            "\n  ],\n  \"malformed_entries\": ["
        });
        for (i, (file, m)) in inventory.malformed.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"file\": {}, \"line\": {}, \"text\": {}, \"problem\": {}}}",
                json_str(file),
                m.line,
                json_str(&m.text),
                json_str(&m.problem),
            ));
        }
        out.push_str(if inventory.malformed.is_empty() {
            "]\n}"
        } else {
            "\n  ]\n}"
        });
        println!("{out}");
    } else {
        for (e, status) in inventory.entries.iter().zip(&statuses) {
            println!(
                "{}:{}: {}: allow({}) [{status}] — {}",
                e.file,
                e.waiver.line,
                e.waiver.tool.name(),
                e.waiver.rule,
                e.waiver.reason
            );
        }
        for (file, m) in &inventory.malformed {
            println!("{file}:{}: MALFORMED ({}): {}", m.line, m.problem, m.text);
        }
        eprintln!(
            "xtask waivers: {} file(s) scanned, {} waiver(s) ({stale} stale), {} malformed, {unknown_rule} unknown-rule",
            inventory.files_scanned,
            inventory.entries.len(),
            inventory.malformed.len(),
        );
    }

    if !inventory.malformed.is_empty() || unknown_rule > 0 || stale > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// The workspace root: the parent of this crate's directory
/// (`crates/xtask` at build time), or the current directory as a
/// fallback.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|crates| crates.parent())
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."))
}

fn render_text(tool: Tool, report: &Report) {
    for finding in report.unwaived() {
        println!(
            "{}:{}: {}: {}",
            finding.file, finding.line, finding.rule, finding.message
        );
    }
    eprintln!(
        "xtask {}: {} file(s) scanned, {} finding(s): {} unwaived, {} waived",
        tool.name(),
        report.files_scanned,
        report.findings.len(),
        report.unwaived_count(),
        report.waived_count(),
    );
}

/// Hand-rolled JSON (keeps xtask dependency-free so the lint builds
/// fast and cold).
fn render_json(report: &Report) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"files_scanned\": {},\n  \"unwaived\": {},\n  \"waived\": {},\n  \"findings\": [",
        report.files_scanned,
        report.unwaived_count(),
        report.waived_count(),
    ));
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"message\": {}, \"waived\": {}",
            json_str(&f.file),
            f.line,
            json_str(f.rule),
            json_str(&f.message),
            f.waiver.is_some(),
        ));
        if let Some(reason) = &f.waiver {
            out.push_str(&format!(", \"waiver_reason\": {}", json_str(reason)));
        }
        out.push('}');
    }
    if report.findings.is_empty() {
        out.push_str("]\n}");
    } else {
        out.push_str("\n  ]\n}");
    }
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
