//! README, EXPERIMENTS and DESIGN may only cite things that exist:
//! cargo targets after `--bench` / `--test` / `--example` / `--bin` and
//! in DESIGN §5's "Regeneration target" column, `BENCHMARK.json`
//! workloads, and — the convention is `` `workload` `metric` `` — the
//! metric cited right after one. Nothing cites the retired bench system
//! outside DESIGN's "One of each" record of its deletion. Every
//! `src/{a,b,c}.rs` list of DESIGN §3's tree names files that exist.

use std::collections::BTreeSet;
use std::path::PathBuf;

const DOCS: [&str; 3] = ["README.md", "EXPERIMENTS.md", "DESIGN.md"];

fn read(rel: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// Stems of the `.rs` files in `<package>/<dir>` of the root package and
/// of every crate: the targets of that kind cargo discovers.
fn targets(dir: &str) -> BTreeSet<String> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let crates = std::fs::read_dir(root.join("crates")).expect("crates/");
    let packages = crates.map(|c| c.unwrap().path()).chain([root.clone()]);
    let files = packages.filter_map(|p| std::fs::read_dir(p.join(dir)).ok());
    files
        .flatten()
        .map(|f| f.unwrap().path())
        .filter(|f| f.extension().is_some_and(|e| e == "rs"))
        .map(|f| f.file_stem().unwrap().to_str().unwrap().to_string())
        .collect()
}

/// `name` of every entry of `BENCHMARK.json`'s list `key`.
fn benchmark_names(key: &str) -> BTreeSet<String> {
    let doc: serde_json::Value = serde_json::from_str(&read("BENCHMARK.json")).unwrap();
    let list = doc.get(key).and_then(|v| v.as_array()).expect(key);
    let name = |entry: &serde_json::Value| entry.get("name")?.as_str().map(String::from);
    list.iter().map(|e| name(e).expect("name")).collect()
}

/// The longest prefix of `s` made of target-name characters.
fn ident(s: &str) -> &str {
    let is_name = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == '-';
    &s[..s.find(|c| !is_name(c)).unwrap_or(s.len())]
}

/// Every `` `token` `` of `text`. A fenced block comes out as one long
/// token, which is no name and matches nothing below.
fn backticked(text: &str) -> impl Iterator<Item = &str> {
    text.split('`').skip(1).step_by(2)
}

#[test]
fn docs_cite_only_what_exists() {
    let (benches, tests, bins) = (targets("benches"), targets("tests"), targets("src/bin"));
    let by_flag = [
        ("--bench ", &benches),
        ("--test ", &tests),
        ("--example ", &targets("examples")),
        ("--bin ", &bins),
    ];
    let workloads = benchmark_names("workloads");
    let metrics = &benchmark_names("end_to_end") | &benchmark_names("per_layer");
    let mut missing = Vec::new();

    for doc in DOCS {
        let text = read(doc).replace('\n', " ");
        for (flag, known) in by_flag {
            assert!(!known.is_empty(), "no target for {flag}found at all");
            for (at, _) in text.match_indices(flag) {
                // `cargo bench … -- --test` passes a flag and names nothing.
                let name = ident(&text[at + flag.len()..]);
                if !name.is_empty() && !known.contains(name) {
                    missing.push(format!("{doc}: {flag}{name}"));
                }
            }
        }
        for workload in &workloads {
            let cite = format!("`{workload}` `");
            for (at, _) in text.match_indices(&cite) {
                let metric = text[at + cite.len()..].split('`').next().unwrap();
                if !metrics.contains(metric) {
                    missing.push(format!("{doc}: metric `{metric}` of `{workload}`"));
                }
            }
        }
        // Shaped like a workload (`serve_…`, `campaign_…`): must be one.
        for token in backticked(&text).filter(|t| *t == ident(t) && !t.contains('-')) {
            let shaped = workloads
                .iter()
                .any(|w| token.starts_with(&w[..=w.find('_').unwrap()]));
            if shaped && !workloads.contains(token) && !tests.contains(token) {
                missing.push(format!("{doc}: workload `{token}`"));
            }
        }
    }

    // DESIGN §5: a target, `figures SUB`, `upin COMMAND`, a workload or a CI job.
    let design = read("DESIGN.md");
    let ci = read(".github/workflows/ci.yml");
    let commands = read("crates/cli/src/commands.rs");
    let index = design.split("## 5. Per-experiment index").nth(1).unwrap();
    let rows: Vec<&str> = index.lines().filter(|l| l.starts_with("| ")).collect();
    assert!(rows.len() >= 15, "DESIGN §5 table not found");
    for row in &rows[1..] {
        let column = row.trim_end_matches('|').rsplit('|').next().unwrap();
        for token in backticked(column) {
            let word = ident(token);
            let known = match token[word.len()..].trim_start() {
                "" => {
                    benches.contains(word)
                        || tests.contains(word)
                        || workloads.contains(word)
                        || ci.contains(&format!("\n  {word}:\n"))
                }
                _ if word == "cargo" => true, // checked flag by flag above
                _ if word == "figures" => bins.contains(word),
                // A row of the command table, or the first word of one.
                rest if word == "upin" => {
                    let name = format!("name: \"{}", ident(rest));
                    commands.contains(&format!("{name}\""))
                        || commands.contains(&format!("{name} "))
                }
                _ => false,
            };
            if !known {
                missing.push(format!("DESIGN.md §5: `{token}`"));
            }
        }
    }
    assert!(missing.is_empty(), "cited but not there: {missing:#?}");

    // Spelled in pieces so that this file does not cite them either.
    let retired = [
        concat!("bench", "_dump"),
        concat!("BENCH", "_"),
        concat!("micro", "_failover"),
        concat!("InProcess", "Transport"),
        concat!("describe", "_choices"),
    ];
    let mut stale = Vec::new();
    for doc in DOCS {
        let text = read(doc);
        // The record of what was deleted may say what was deleted.
        let record = text.find("* **One of each").map_or(0..0, |start| {
            let len = text[start + 1..].find("\n* **").expect("next record");
            start..start + 1 + len
        });
        for needle in retired {
            for (at, _) in text.match_indices(needle) {
                if !record.contains(&at) {
                    let line = text[..at].matches('\n').count() + 1;
                    stale.push(format!("{doc}:{line}: {needle}"));
                }
            }
        }
    }
    assert!(stale.is_empty(), "stale citations: {stale:#?}");
}

/// `a,b/{c,d}` → `a`, `b/c`, `b/d`.
fn expand_braces(list: &str) -> Vec<String> {
    let mut out = Vec::new();
    let (mut depth, mut start) = (0, 0);
    for (at, c) in list.char_indices().chain([(list.len(), ',')]) {
        match c {
            '{' => depth += 1,
            '}' => depth -= 1,
            ',' if depth == 0 => {
                let item = &list[start..at];
                match item.split_once('{') {
                    Some((dir, inner)) => {
                        let inner = inner.strip_suffix('}').expect("balanced braces");
                        out.extend(expand_braces(inner).iter().map(|f| format!("{dir}{f}")));
                    }
                    None => out.push(item.to_string()),
                }
                start = at + 1;
            }
            _ => {}
        }
    }
    out
}

#[test]
fn design_tree_lists_files_that_exist() {
    let design = read("DESIGN.md");
    let section = design.split("## 3. Workspace inventory").nth(1).unwrap();
    let tree = section.split("```").nth(1).expect("the tree is fenced");
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    // The directories a line hangs under, by the column of their `── `.
    let mut dirs: Vec<(usize, &str)> = Vec::new();
    let (mut missing, mut lists) = (Vec::new(), 0);
    for (n, line) in tree.lines().enumerate() {
        let Some(column) = line.chars().position(|c| c == '─') else {
            continue;
        };
        let entry = line.split("── ").nth(1).unwrap();
        dirs.retain(|(c, _)| *c < column);
        let parent: PathBuf = dirs.iter().map(|(_, d)| d).collect();
        if let Some(list) = entry.strip_prefix("src/{") {
            // The list may run over the following lines, up to `}.rs`.
            let rest: String = tree.lines().skip(n + 1).collect();
            let text = format!("{list}{rest}").replace(['│', ' '], "");
            let list = &text[..text.find("}.rs").expect("list ends in `}.rs`")];
            lists += 1;
            for file in expand_braces(list) {
                let path = parent.join("src").join(format!("{file}.rs"));
                if !root.join(&path).is_file() {
                    missing.push(path.display().to_string());
                }
            }
        } else if let Some(dir) = entry.split(' ').next().and_then(|w| w.strip_suffix('/')) {
            dirs.push((column, dir));
        }
    }
    assert!(
        lists >= 7,
        "DESIGN §3 tree: found {lists} `src/{{…}}.rs` lists"
    );
    assert!(
        missing.is_empty(),
        "DESIGN §3 lists files that are not there: {missing:#?}"
    );
}
