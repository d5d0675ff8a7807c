//! Wire constants against the bytes on disk and in the source.
//!
//! The container writer, its reader and the golden fixtures under
//! `tests/data/` must all mean the same thing by "magic", "version" and
//! "a chunk-table row". The relations between the constants themselves
//! (row-size chain, distinct magics, distinct payload tags, the ANS table
//! geometry) are `const` assertions next to their declarations; this
//! suite checks what a compiler cannot:
//!
//! * every fixture carries the exported magic and a declared version
//!   byte, a v4 fixture a known dtype byte, and a chunked fixture the
//!   exact geometry
//!   `table_pos + CHUNK_COUNT_PREFIX_BYTES + rows * row + TABLE_FOOTER_BYTES == len`;
//! * each wire magic is spelled as a byte-string literal exactly once in
//!   the library sources (its declaration), and the chunk-row sizes and
//!   ANS wire sizes never recur as bare integers in the modules that
//!   share them.

use std::path::{Path, PathBuf};
use tac_core::{
    TacDtype, CHUNK_COUNT_PREFIX_BYTES, CHUNK_ROW_BYTES_V2, CHUNK_ROW_BYTES_V3, CHUNK_ROW_BYTES_V4,
    MAGIC, TABLE_FOOTER_BYTES, VERSION_V1, VERSION_V2, VERSION_V3, VERSION_V4,
};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn fixtures() -> Vec<PathBuf> {
    let dir = repo_root().join("tests/data");
    let mut out: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "tacd"))
        .collect();
    out.sort();
    out
}

fn le_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

fn le_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

/// Checks one container's header bytes and, for chunked versions, its
/// exact file geometry. Returns a description of the first mismatch.
fn check_container(bytes: &[u8]) -> Result<(), String> {
    if bytes.len() < 7 {
        return Err(format!("{} bytes is smaller than any header", bytes.len()));
    }
    if &bytes[..4] != MAGIC {
        return Err(format!("magic {:02x?}, expected {MAGIC:02x?}", &bytes[..4]));
    }
    let version = bytes[4];
    let row = match version {
        VERSION_V1 => return Ok(()), // v1 has no chunk table
        VERSION_V2 => CHUNK_ROW_BYTES_V2,
        VERSION_V3 => CHUNK_ROW_BYTES_V3,
        VERSION_V4 => CHUNK_ROW_BYTES_V4,
        v => return Err(format!("version byte {v} is not a declared version")),
    };
    // v4 headers carry the element-type tag right after the method byte.
    if version == VERSION_V4 && TacDtype::from_tag(bytes[6]).is_none() {
        return Err(format!(
            "v4 dtype byte {} is not a known element type",
            bytes[6]
        ));
    }
    let len = bytes.len();
    if len < TABLE_FOOTER_BYTES + CHUNK_COUNT_PREFIX_BYTES {
        return Err("too small for a chunk table".into());
    }
    let table_pos = le_u64(bytes, len - TABLE_FOOTER_BYTES) as usize;
    if table_pos > len - TABLE_FOOTER_BYTES - CHUNK_COUNT_PREFIX_BYTES {
        return Err(format!("footer table offset {table_pos} out of bounds"));
    }
    let rows = le_u32(bytes, table_pos) as usize;
    let expected = table_pos + CHUNK_COUNT_PREFIX_BYTES + rows * row + TABLE_FOOTER_BYTES;
    if expected != len {
        return Err(format!(
            "table at {table_pos} with {rows} rows of {row} bytes implies {expected} bytes, \
             file has {len}"
        ));
    }
    Ok(())
}

#[test]
fn every_fixture_matches_the_exported_wire_constants() {
    let fixtures = fixtures();
    assert!(!fixtures.is_empty(), "no .tacd fixtures found");
    let mut problems = Vec::new();
    let mut versions = Vec::new();
    for path in &fixtures {
        let bytes = std::fs::read(path).unwrap();
        match check_container(&bytes) {
            Ok(()) => versions.push(bytes[4]),
            Err(why) => problems.push(format!("{}: {why}", path.display())),
        }
    }
    // The fixtures pin every chunked row size, not just one of them.
    for v in [VERSION_V1, VERSION_V2, VERSION_V3, VERSION_V4] {
        if !versions.contains(&v) {
            problems.push(format!("no valid fixture of version {v}"));
        }
    }
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}

#[test]
fn geometry_check_rejects_a_wrong_row_count() {
    let path = repo_root().join("tests/data/golden_f32_v4.tacd");
    let mut bytes = std::fs::read(path).unwrap();
    let table_pos = le_u64(&bytes, bytes.len() - TABLE_FOOTER_BYTES) as usize;
    bytes[table_pos] ^= 1;
    assert!(check_container(&bytes).is_err());
}

/// A source file with its trailing `#[cfg(test)] mod tests` block and
/// all `//` comments removed.
fn non_test_source(path: &Path) -> String {
    let text = std::fs::read_to_string(path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let end = lines
        .windows(2)
        .position(|w| w[0] == "#[cfg(test)]" && w[1] == "mod tests {")
        .unwrap_or(lines.len());
    lines[..end]
        .iter()
        .map(|l| l.find("//").map_or(*l, |i| &l[..i]))
        .collect::<Vec<_>>()
        .join("\n")
}

fn library_sources() -> Vec<PathBuf> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|x| x == "rs") {
                out.push(path);
            }
        }
    }
    let mut out = Vec::new();
    for krate in std::fs::read_dir(repo_root().join("crates")).unwrap() {
        let src = krate.unwrap().path().join("src");
        if src.is_dir() {
            walk(&src, &mut out);
        }
    }
    out.sort();
    out
}

/// The value of `const NAME: usize = <integer>;` declared in `path`.
fn declared_usize(path: &Path, name: &str) -> usize {
    let src = non_test_source(path);
    let decl = format!("const {name}: usize = ");
    let at = src
        .find(&decl)
        .unwrap_or_else(|| panic!("{name} not declared in {}", path.display()));
    let rest = &src[at + decl.len()..];
    rest[..rest.find(';').unwrap()].parse().unwrap()
}

/// Occurrences of `n` as a whole integer token (not part of an
/// identifier, a longer number or a float).
fn bare_int_count(src: &str, n: usize) -> usize {
    let needle = n.to_string();
    let is_tok = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == '.';
    src.match_indices(&needle)
        .filter(|&(i, _)| {
            let before = src[..i].chars().next_back();
            let after = src[i + needle.len()..].chars().next();
            !before.is_some_and(is_tok) && !after.is_some_and(is_tok)
        })
        .count()
}

#[test]
fn each_wire_magic_literal_appears_once() {
    let sources: Vec<(PathBuf, String)> = library_sources()
        .into_iter()
        .map(|p| {
            let s = non_test_source(&p);
            (p, s)
        })
        .collect();
    let mut problems = Vec::new();
    for magic in std::iter::once(*MAGIC).chain(tac_codec::STREAM_MAGICS) {
        let literal = format!("b\"{}\"", std::str::from_utf8(&magic).unwrap());
        let hits: Vec<String> = sources
            .iter()
            .filter(|(_, s)| s.contains(&literal))
            .map(|(p, s)| format!("{} ({}x)", p.display(), s.matches(&literal).count()))
            .collect();
        let total: usize = sources
            .iter()
            .map(|(_, s)| s.matches(&literal).count())
            .sum();
        if total != 1 {
            problems.push(format!(
                "{literal} must appear once (its declaration), found in {hits:?}"
            ));
        }
    }
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}

/// Bare spellings of each `(value, NAME)` in `src` beyond the
/// `const NAME: usize = value;` declaration itself.
fn bare_wire_sizes(label: &str, src: &str, sizes: &[(usize, &str)]) -> Vec<String> {
    sizes
        .iter()
        .filter(|&&(value, name)| {
            let declared = usize::from(src.contains(&format!("const {name}: usize = {value};")));
            bare_int_count(src, value) > declared
        })
        .map(|&(value, name)| format!("{label}: bare wire size {value}; use {name}"))
        .collect()
}

#[test]
fn wire_sizes_are_never_bare_integers() {
    let core = repo_root().join("crates/core/src");
    let codec = repo_root().join("crates/codec/src");
    let rows = [
        (CHUNK_ROW_BYTES_V2, "CHUNK_ROW_BYTES_V2"),
        (CHUNK_ROW_BYTES_V3, "CHUNK_ROW_BYTES_V3"),
        (CHUNK_ROW_BYTES_V4, "CHUNK_ROW_BYTES_V4"),
    ];
    // The PcoAns page and the ANS table size likewise go through their
    // named constants in the codec's ANS modules.
    let ans = [
        (declared_usize(&codec.join("pco_ans.rs"), "PAGE"), "PAGE"),
        (
            declared_usize(&codec.join("ans.rs"), "TABLE_SIZE"),
            "TABLE_SIZE",
        ),
    ];
    let mut problems = Vec::new();
    for file in ["container.rs", "stream.rs", "roi.rs"] {
        let src = non_test_source(&core.join(file));
        problems.extend(bare_wire_sizes(&format!("core/{file}"), &src, &rows));
    }
    for file in ["pco_ans.rs", "ans.rs", "bins.rs"] {
        let src = non_test_source(&codec.join(file));
        problems.extend(bare_wire_sizes(&format!("codec/{file}"), &src, &ans));
    }
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}
