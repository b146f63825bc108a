//! README.md and ARCHITECTURE.md are held to the code they describe.
//!
//! Both documents name code, and a name that stops naming something fails
//! here instead of drifting:
//! - a backticked `a::b` path ends in a name that some `fn`, `const`,
//!   `static`, type, trait, module, field or enum variant of the workspace's
//!   Rust sources defines (each name of an `a::{x, y}` group counts; paths
//!   under std, primitive, std-type or external-crate prefixes such as
//!   `Vec::`, `f64::` or `u64::` are exempt);
//! - a `*.rs` name matches a workspace file outside `target/` and `vendor/`,
//!   and `path.rs:N` names exactly one file, of at least N lines;
//! - ARCHITECTURE.md's dependency DAG lists exactly the `bts-*` entries of
//!   every crate's `[dependencies]` (dev-dependencies are not edges), and
//!   README's workspace table and ARCHITECTURE's `##` sections each cover
//!   every crate under `crates/`;
//! - ARCHITECTURE.md names no PR by number and stays a map (at most
//!   30 KiB): history lives in CHANGES.md, BENCH_NOTES.md and git.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;

const DOCS: [&str; 2] = ["README.md", "ARCHITECTURE.md"];

/// Path prefixes whose items live outside the workspace.
const EXTERNAL: &str = "std core alloc Vec String Option Result Box Arc Rc Cow HashMap HashSet \
    BTreeMap BTreeSet VecDeque BinaryHeap iter mem f32 f64 u8 u16 u32 u64 u128 usize i8 i16 i32 \
    i64 i128 isize rand proptest criterion";

/// Item keywords whose next identifier is a definition (`as` for a renamed
/// import, which is how the umbrella crate names its modules).
const ITEM_KEYWORDS: &str = "fn const static struct enum trait type union mod macro_rules as";

fn listed(list: &str, word: &str) -> bool {
    list.split_whitespace().any(|w| w == word)
}

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &str) -> String {
    fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// Every `.rs` file of the workspace, `/`-separated and relative to its
/// root, outside build output, vendored crates and hidden directories.
fn rust_files() -> Vec<String> {
    let mut files = Vec::new();
    let mut dirs = vec![root().to_path_buf()];
    while let Some(dir) = dirs.pop() {
        for entry in fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if path.is_dir() {
                if !(name.starts_with('.') || name == "target" || name == "vendor") {
                    dirs.push(path);
                }
            } else if name.ends_with(".rs") {
                let rel = path.strip_prefix(root()).unwrap();
                files.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    files.sort();
    files
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The identifiers of `line` in order (runs of identifier characters that
/// do not start with a digit).
fn identifiers(line: &str) -> Vec<&str> {
    line.split(|c: char| !is_ident(c))
        .filter(|w| w.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_'))
        .collect()
}

/// Every name the workspace's Rust sources define: items, renamed imports,
/// fields and enum variants. Fields and variants are read off the start of
/// a line (`name: Type`, `Variant,` / `Variant(..)` / `Variant {`), which
/// also admits a few locals and struct-literal keys; a stale name in a doc
/// is one that no line of code defines in any of these ways.
fn definitions(files: &[String]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for file in files {
        for line in read(file).lines() {
            let line = line.trim_start();
            if line.starts_with("//") {
                continue;
            }
            let words = identifiers(line);
            for pair in words.windows(2) {
                if listed(ITEM_KEYWORDS, pair[0]) {
                    names.insert(pair[1].to_string());
                }
            }
            let rest = strip_visibility(line);
            let name_len = rest.find(|c: char| !is_ident(c)).unwrap_or(rest.len());
            let (name, after) = rest.split_at(name_len);
            let after = after.trim_start();
            let field = after.starts_with(':') && !after.starts_with("::");
            let variant = name.starts_with(|c: char| c.is_ascii_uppercase())
                && (after.is_empty() || after.starts_with([',', '(', '{', '=']));
            if !name.is_empty() && (field || variant) {
                names.insert(name.to_string());
            }
        }
    }
    names
}

fn strip_visibility(line: &str) -> &str {
    let Some(rest) = line.strip_prefix("pub") else {
        return line;
    };
    let rest = match rest.strip_prefix('(') {
        Some(scoped) => scoped.split_once(')').map_or(rest, |(_, r)| r),
        None => rest,
    };
    if rest.starts_with(char::is_whitespace) {
        rest.trim_start()
    } else {
        line
    }
}

/// The text of every inline code span outside fenced blocks (a span may
/// break across lines, as Markdown allows).
fn code_spans(doc: &str) -> Vec<String> {
    let mut prose = String::new();
    let mut fenced = false;
    for line in doc.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            prose.push_str(line);
            prose.push('\n');
        }
    }
    let bytes = prose.as_bytes();
    let run_at = |i: usize| bytes[i..].iter().take_while(|&&b| b == b'`').count();
    let mut spans = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] != b'`' {
            i += 1;
            continue;
        }
        let run = run_at(i);
        let start = i + run;
        let mut j = start;
        let mut close = None;
        while j < bytes.len() {
            if bytes[j] == b'`' {
                let r = run_at(j);
                if r == run {
                    close = Some(j);
                    break;
                }
                j += r;
            } else {
                j += 1;
            }
        }
        match close {
            Some(end) => {
                spans.push(prose[start..end].replace('\n', " "));
                i = end + run;
            }
            None => i = start,
        }
    }
    spans
}

/// Each `a::b` path in `code` with the names it must resolve: its last
/// segment, or every name of its trailing `{x, y}` group (a suffix after
/// the group, `{x, y}_z`, is appended to each). Paths under an
/// [`EXTERNAL`] prefix are left out.
fn path_targets(code: &str) -> Vec<(String, Vec<String>)> {
    let chars: Vec<char> = code.chars().collect();
    let ident_end = |from: usize| {
        (from..chars.len())
            .find(|&k| !is_ident(chars[k]))
            .unwrap_or(chars.len())
    };
    let text = |a: usize, b: usize| chars[a..b].iter().collect::<String>();
    let mut out = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        let starts = (chars[i].is_ascii_alphabetic() || chars[i] == '_')
            && (i == 0 || !is_ident(chars[i - 1]));
        if !starts {
            i += 1;
            continue;
        }
        let mut j = ident_end(i);
        let first = text(i, j);
        let mut names = vec![first.clone()];
        let mut segments = 1;
        while j + 1 < chars.len() && chars[j] == ':' && chars[j + 1] == ':' {
            let k = j + 2;
            if chars.get(k) == Some(&'{') {
                let Some(len) = chars[k..].iter().position(|&c| c == '}') else {
                    break;
                };
                let end = ident_end(k + len + 1);
                let suffix = text(k + len + 1, end);
                names = text(k + 1, k + len)
                    .split(',')
                    .map(|item| item.trim().rsplit("::").next().unwrap_or("").to_string())
                    .filter(|item| !item.is_empty() && item != "self")
                    .map(|item| format!("{item}{suffix}"))
                    .collect();
                segments += 1;
                j = end;
                break;
            }
            if !chars
                .get(k)
                .is_some_and(|&c| c.is_ascii_alphabetic() || c == '_')
            {
                break;
            }
            let end = ident_end(k);
            names = vec![text(k, end)];
            segments += 1;
            j = end;
        }
        if segments > 1 && !listed(EXTERNAL, &first) {
            out.push((text(i, j), names));
        }
        i = j.max(i + 1);
    }
    out
}

#[test]
fn code_paths_name_workspace_items() {
    let defined = definitions(&rust_files());
    let mut stale = Vec::new();
    for doc in DOCS {
        for span in code_spans(&read(doc)) {
            for (path, names) in path_targets(&span) {
                for name in names.iter().filter(|n| !defined.contains(n.as_str())) {
                    stale.push(format!("{doc}: `{path}` ({name} is defined nowhere)"));
                }
            }
        }
    }
    assert!(stale.is_empty(), "stale code paths:\n{}", stale.join("\n"));
}

/// `*` matches any run of characters within one path segment.
fn glob(pattern: &[u8], name: &[u8]) -> bool {
    match pattern.split_first() {
        None => name.is_empty(),
        Some((b'*', rest)) => (0..=name.len()).any(|k| glob(rest, &name[k..])),
        Some((&c, rest)) => name.first() == Some(&c) && glob(rest, &name[1..]),
    }
}

/// The workspace files a doc's `*.rs` name can mean: those whose last path
/// segments match the name's.
fn matching<'a>(name: &str, files: &'a [String]) -> Vec<&'a String> {
    let want: Vec<&str> = name.split('/').collect();
    files
        .iter()
        .filter(|file| {
            let have: Vec<&str> = file.split('/').collect();
            have.len() >= want.len()
                && want
                    .iter()
                    .zip(&have[have.len() - want.len()..])
                    .all(|(w, h)| glob(w.as_bytes(), h.as_bytes()))
        })
        .collect()
}

/// Every `*.rs` name in `doc` (anywhere, code spans or prose), with the
/// line number of a `name.rs:N` citation.
fn rust_names(doc: &str) -> Vec<(String, Option<usize>)> {
    let mut out = Vec::new();
    for (at, _) in doc.match_indices(".rs") {
        let after = &doc[at + 3..];
        if after.starts_with(is_ident) {
            continue;
        }
        let name_start = doc[..at]
            .char_indices()
            .rev()
            .find(|&(_, c)| !(is_ident(c) || "/.*-".contains(c)))
            .map_or(0, |(k, c)| k + c.len_utf8());
        let name = doc[name_start..at + 3].trim_start_matches(['.', '/']);
        let line = after
            .strip_prefix(':')
            .map(|rest| {
                rest.chars()
                    .take_while(char::is_ascii_digit)
                    .collect::<String>()
            })
            .and_then(|digits| digits.parse().ok());
        out.push((name.to_string(), line));
    }
    out
}

#[test]
fn rust_file_names_exist_and_line_citations_fit() {
    let files = rust_files();
    let mut bad = Vec::new();
    for doc in DOCS {
        for (name, line) in rust_names(&read(doc)) {
            let hits = matching(&name, &files);
            match (hits.as_slice(), line) {
                ([], _) => bad.push(format!("{doc}: `{name}` matches no workspace file")),
                (_, None) => {}
                ([file], Some(n)) => {
                    let lines = read(file).lines().count();
                    if lines < n {
                        bad.push(format!("{doc}: `{name}:{n}` but {file} has {lines} lines"));
                    }
                }
                (many, Some(n)) => {
                    let many: Vec<&str> = many.iter().map(|f| f.as_str()).collect();
                    bad.push(format!("{doc}: `{name}:{n}` is ambiguous: {many:?}"));
                }
            }
        }
    }
    assert!(bad.is_empty(), "bad file references:\n{}", bad.join("\n"));
}

/// A manifest's package name and the `bts-*` crates of its
/// `[dependencies]` (dev- and build-dependencies are not edges).
fn manifest(rel: &str) -> (String, BTreeSet<String>) {
    let mut section = String::new();
    let mut name = None;
    let mut deps = BTreeSet::new();
    for line in read(rel).lines() {
        let line = line.trim();
        if let Some(header) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            section = header.to_string();
            continue;
        }
        let key = line.split(['=', '.']).next().unwrap_or("").trim();
        match section.as_str() {
            "package" if key == "name" => {
                let value = line.split_once('=').unwrap().1;
                name = Some(value.trim().trim_matches('"').to_string());
            }
            "dependencies" if key.starts_with("bts") => {
                deps.insert(key.to_string());
            }
            _ => {}
        }
    }
    (
        name.unwrap_or_else(|| panic!("{rel} has no package name")),
        deps,
    )
}

/// Every crate directory under `crates/`, by name.
fn crate_dirs() -> Vec<String> {
    let mut dirs: Vec<String> = fs::read_dir(root().join("crates"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.join("Cargo.toml").is_file())
        .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
        .collect();
    dirs.sort();
    dirs
}

/// Every workspace crate's package name and `bts-*` dependencies: the
/// crates under `crates/` and the umbrella.
fn workspace_edges() -> BTreeMap<String, BTreeSet<String>> {
    let mut manifests: Vec<String> = crate_dirs()
        .iter()
        .map(|d| format!("crates/{d}/Cargo.toml"))
        .collect();
    manifests.push("Cargo.toml".to_string());
    manifests.iter().map(|m| manifest(m)).collect()
}

/// The `bts` / `bts-*` words of `text`, in order.
fn crate_words(text: &str) -> Vec<&str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
        .filter(|w| *w == "bts" || w.starts_with("bts-"))
        .collect()
}

/// ARCHITECTURE.md's DAG: the first fenced block after its "dependency
/// DAG" heading, one `crate ─► dep, dep` line per crate.
fn documented_edges(arch: &str) -> BTreeMap<String, Vec<BTreeSet<String>>> {
    let mut lines = arch
        .lines()
        .skip_while(|l| !(l.starts_with("## ") && l.contains("dependency DAG")))
        .skip_while(|l| !l.starts_with("```"))
        .skip(1);
    let mut dag: BTreeMap<String, Vec<BTreeSet<String>>> = BTreeMap::new();
    for line in lines.by_ref().take_while(|l| !l.starts_with("```")) {
        let Some((from, to)) = line.split_once('►') else {
            continue;
        };
        let Some(&krate) = crate_words(from).last() else {
            continue;
        };
        let deps = crate_words(to).into_iter().map(str::to_string).collect();
        dag.entry(krate.to_string()).or_default().push(deps);
    }
    dag
}

#[test]
fn dependency_dag_matches_the_manifests() {
    let edges = workspace_edges();
    let dag = documented_edges(&read("ARCHITECTURE.md"));
    let mut bad = Vec::new();
    for (krate, deps) in &edges {
        match dag.get(krate).map(Vec::as_slice) {
            None => bad.push(format!("{krate} has no DAG line")),
            Some([listed]) if listed == deps => {}
            Some([listed]) => bad.push(format!(
                "{krate}: DAG lists {listed:?}, Cargo.toml [dependencies] has {deps:?}"
            )),
            Some(lines) => bad.push(format!("{krate} has {} DAG lines", lines.len())),
        }
    }
    for krate in dag.keys().filter(|k| !edges.contains_key(*k)) {
        bad.push(format!(
            "the DAG lists {krate}, which is no workspace crate"
        ));
    }
    assert!(bad.is_empty(), "dependency DAG drift:\n{}", bad.join("\n"));
}

#[test]
fn every_crate_has_a_readme_row_and_an_architecture_section() {
    let readme = read("README.md");
    let arch = read("ARCHITECTURE.md");
    let headings: Vec<&str> = arch.lines().filter(|l| l.starts_with("## ")).collect();
    let mut missing = Vec::new();
    for dir in crate_dirs() {
        let cell = format!("`crates/{dir}`");
        let row = readme
            .lines()
            .any(|l| l.starts_with('|') && l.split('|').nth(1).is_some_and(|c| c.contains(&cell)));
        if !row {
            missing.push(format!("README.md has no workspace-table row for {cell}"));
        }
    }
    for name in workspace_edges().keys() {
        let tag = format!("`{name}`");
        if !headings.iter().any(|h| h.contains(&tag)) {
            missing.push(format!("ARCHITECTURE.md has no `##` section for {tag}"));
        }
    }
    assert!(missing.is_empty(), "{}", missing.join("\n"));
}

#[test]
fn architecture_names_no_pr_and_stays_a_map() {
    let arch = read("ARCHITECTURE.md");
    let mut bad: Vec<String> = arch
        .lines()
        .enumerate()
        .filter(|(_, line)| cites_a_pr(line))
        .map(|(n, line)| format!("ARCHITECTURE.md:{}: {}", n + 1, line.trim()))
        .collect();
    if arch.len() > 30 * 1024 {
        bad.push(format!(
            "ARCHITECTURE.md is {} bytes; a map of the code fits in 30 KiB",
            arch.len()
        ));
    }
    assert!(
        bad.is_empty(),
        "history in ARCHITECTURE.md:\n{}",
        bad.join("\n")
    );
}

/// Whether `line` names a PR by number: `PR 4`, `PR-17`, `PR #5`, `PRs 51`.
fn cites_a_pr(line: &str) -> bool {
    line.match_indices("PR").any(|(at, _)| {
        let word_start = !line[..at].ends_with(|c: char| c.is_alphanumeric());
        let rest = line[at + 2..].trim_start_matches('s');
        let rest = rest.trim_start_matches([' ', '-', '#', '\u{a0}']);
        word_start && rest.starts_with(|c: char| c.is_ascii_digit())
    })
}

#[test]
fn the_scanners_read_what_the_docs_write() {
    let doc = "A `Reuse::{Next, Later}` and `a::{b, c}_d`\nspan `x::\ny`, see\n```text\n`Fenced::out`\n```\n`std::mem::swap`";
    let spans = code_spans(doc);
    assert_eq!(
        spans,
        [
            "Reuse::{Next, Later}",
            "a::{b, c}_d",
            "x:: y",
            "std::mem::swap"
        ]
    );
    let targets: Vec<_> = spans.iter().flat_map(|s| path_targets(s)).collect();
    assert_eq!(targets[0].1, ["Next", "Later"]);
    assert_eq!(targets[1].1, ["b_d", "c_d"]);
    assert_eq!(targets.len(), 2, "`x:: y` is no path and std is exempt");

    let names = rust_names("in `sim/src/noc.rs:97`, (engine.rs) and tests/property_*.rs; x.rsa");
    let want = [
        ("sim/src/noc.rs", Some(97)),
        ("engine.rs", None),
        ("tests/property_*.rs", None),
    ];
    assert_eq!(names, want.map(|(n, l)| (n.to_string(), l)));
    let files = [
        "crates/sim/src/noc.rs".to_string(),
        "tests/property_serve.rs".to_string(),
    ];
    assert_eq!(matching("sim/src/noc.rs", &files), [&files[0]]);
    assert_eq!(matching("tests/property_*.rs", &files), [&files[1]]);
    assert!(matching("src/noc.rs.bak", &files).is_empty());

    assert!(cites_a_pr("since PR 25") && cites_a_pr("(PR-4)") && cites_a_pr("PRs 51–55"));
    assert!(!cites_a_pr("PRNG") && !cites_a_pr("SPR 4") && !cites_a_pr("a PR"));
}
