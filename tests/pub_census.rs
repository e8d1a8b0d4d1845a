//! A crate's `pub` items are the ones something outside its library
//! names: another crate, its own `tests/`, `benches/` and bin targets,
//! the facade, the root `tests/` and `examples/`, the end-to-end
//! benchmark — or that such an item's own declaration names (the
//! return type of a `pub fn` a caller uses without spelling it, the
//! type of a field). Anything else is `pub(crate)`, where the
//! compiler's `dead_code` lint can see it. `unreachable_pub` cannot
//! hold this line — every module here is `pub mod` — so this word
//! census does. It is a ratchet, not a proof: a name that collides with
//! another crate's (`new`, `len`) passes unexamined.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// `(crate, item, why it is `pub` with no caller spelled outside)`.
const ALLOW: [(&str, &str, &str); 1] = [(
    "scion-sim",
    "PolicyParseError",
    "`<Acl as FromStr>::Err`: an impl names it, callers only `?` and print it",
)];

const KINDS: [&str; 7] = ["fn", "struct", "enum", "trait", "const", "static", "type"];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for path in entries.map(|e| e.unwrap().path()) {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn words(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
}

/// `(kind, name)` when `line` declares a `pub` item.
fn pub_item(line: &str) -> Option<(&str, &str)> {
    let mut rest = line.trim_start().strip_prefix("pub ")?;
    loop {
        let (word, tail) = rest.split_once(' ')?;
        let next = tail.split(' ').next()?;
        if matches!(word, "const" | "unsafe") && (KINDS.contains(&next) || next == "unsafe") {
            rest = tail;
        } else if KINDS.contains(&word) {
            return Some((word, words(tail).next()?));
        } else {
            return None;
        }
    }
}

/// The text of the declaration that starts at `lines[0]`: a `fn`'s
/// signature, anything else through its closing brace or `;`.
fn declaration<'a>(kind: &str, lines: &[&'a str]) -> Vec<&'a str> {
    let mut depth = 0i32;
    let mut out = Vec::new();
    for line in lines {
        out.push(*line);
        depth += line.matches('{').count() as i32 - line.matches('}').count() as i32;
        let end = line.trim_end();
        let closed = depth == 0 && (end.ends_with(';') || end.ends_with('}'));
        if closed || kind == "fn" && end.ends_with('{') {
            break;
        }
    }
    out
}

#[test]
fn every_pub_item_is_named_outside_its_crate() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let crates: BTreeSet<String> = std::fs::read_dir(root.join("crates"))
        .expect("crates/")
        .map(|c| c.unwrap().file_name().into_string().unwrap())
        .collect();

    // Every `.rs` file with the crate whose library it is part of (""
    // for what is no crate's library), and, per word, who spells it.
    let mut sources: Vec<(&str, PathBuf, String)> = Vec::new();
    for dir in [
        "src",
        "tests",
        "examples",
        "benchmark/src",
        "benchmark/tests",
    ] {
        sources.extend(read_all("", &root.join(dir)));
    }
    for name in &crates {
        let dir = root.join("crates").join(name);
        for (_, file, text) in read_all(name, &dir.join("src")) {
            let rel = file.strip_prefix(dir.join("src")).unwrap();
            let bin_target = rel.starts_with("bin") || rel == Path::new("main.rs");
            sources.push((if bin_target { "" } else { name }, file, text));
        }
        sources.extend(read_all("", &dir.join("tests")));
        sources.extend(read_all("", &dir.join("benches")));
    }
    // ALLOW spells its names here; that is no use of them.
    sources.retain(|(_, file, _)| !file.ends_with(file!()));
    let mut spelled_in: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (owner, _, text) in &sources {
        for word in words(text) {
            spelled_in.entry(word).or_default().insert(owner);
        }
    }

    // Per crate: each `pub` item above the first `#[cfg(test)]` with
    // where it is and the words of its declaration.
    type Item<'a> = (&'a Path, &'a str, Vec<&'a str>);
    let mut items: BTreeMap<&str, BTreeMap<&str, Vec<Item>>> = BTreeMap::new();
    for (owner, file, text) in sources.iter().filter(|(owner, ..)| !owner.is_empty()) {
        let api = text.split("#[cfg(test)]").next().unwrap();
        let lines: Vec<&str> = api.lines().collect();
        for (n, line) in lines.iter().enumerate() {
            if let Some((kind, name)) = pub_item(line) {
                let named = declaration(kind, &lines[n..]);
                let named = named.iter().flat_map(|l| words(l)).collect();
                let item = (file.strip_prefix(&root).unwrap(), kind, named);
                items
                    .entry(owner)
                    .or_default()
                    .entry(name)
                    .or_default()
                    .push(item);
            }
        }
    }

    let mut orphans = Vec::new();
    let mut allowed = BTreeSet::new();
    for (owner, items) in &items {
        let outside = |name: &str| spelled_in[name].iter().any(|other| other != owner);
        let mut used: Vec<&str> = items.keys().copied().filter(|n| outside(n)).collect();
        let mut seen: BTreeSet<&str> = used.iter().copied().collect();
        while let Some(name) = used.pop() {
            let named = items[name].iter().flat_map(|(_, _, words)| words);
            for word in named.filter(|w| items.contains_key(*w)) {
                if seen.insert(word) {
                    used.push(word);
                }
            }
        }
        for (name, places) in items.iter().filter(|(n, _)| !seen.contains(*n)) {
            if ALLOW.iter().any(|(c, n, _)| c == owner && n == name) {
                allowed.insert((*owner, *name));
                continue;
            }
            for (file, kind, _) in places {
                orphans.push(format!("{}: {kind} {name}", file.display()));
            }
        }
    }
    assert!(
        orphans.is_empty(),
        "{} `pub` items that nothing outside their crate's library names — demote to \
         pub(crate) or add it to ALLOW with a reason: {orphans:#?}",
        orphans.len()
    );
    assert!(ALLOW.len() <= 10, "ALLOW is for exceptions");
    for (krate, name, reason) in ALLOW {
        assert!(!reason.is_empty(), "{krate}::{name} needs a reason");
        assert!(
            allowed.contains(&(krate, name)),
            "{krate}::{name} is in ALLOW but no longer needs to be"
        );
    }
}

fn read_all<'a>(owner: &'a str, dir: &Path) -> Vec<(&'a str, PathBuf, String)> {
    let mut files = Vec::new();
    rust_files(dir, &mut files);
    files.sort();
    let read = |file: PathBuf| {
        let text = std::fs::read_to_string(&file).unwrap();
        (owner, file, text)
    };
    files.into_iter().map(read).collect()
}
