//! # sloc — source lines of code
//!
//! A work-alike of David A. Wheeler's *Sloccount*, the instrument the HPL
//! paper uses for its programmability study (§V-A): it "counts the number
//! of source lines of code excluding comments and empty lines (SLOC)".
//!
//! Supported languages: C-family (C, C++, OpenCL C — `//` and `/* */`
//! comments, string/char literals respected) and Rust (additionally
//! handles nested block comments and treats `///` / `//!` doc comments as
//! comments, as they are).

#![forbid(unsafe_code)]

use std::path::Path;

/// Language syntaxes the counter understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Language {
    /// C, C++, OpenCL C: `//`, `/* */`, no nesting.
    CFamily,
    /// Rust: `//`, nested `/* */`.
    Rust,
}

impl Language {
    /// Guess the language from a file extension.
    pub fn from_extension(ext: &str) -> Option<Language> {
        match ext {
            "c" | "h" | "cpp" | "cc" | "cxx" | "hpp" | "cl" | "cu" => Some(Language::CFamily),
            "rs" => Some(Language::Rust),
            _ => None,
        }
    }

    /// Guess the language from a path.
    pub fn from_path(path: &Path) -> Option<Language> {
        path.extension()
            .and_then(|e| e.to_str())
            .and_then(Language::from_extension)
    }
}

/// Count the source lines of code in `source`: physical lines that contain
/// at least one token that is neither whitespace nor comment.
pub fn count(source: &str, lang: Language) -> usize {
    strip_comments(source, lang)
        .lines()
        .filter(|l| !l.trim().is_empty())
        .count()
}

/// Replace comments with spaces (preserving newlines), respecting string
/// and character literals.
pub fn strip_comments(source: &str, lang: Language) -> String {
    let bytes = source.as_bytes();
    let mut out = String::with_capacity(source.len());
    let mut i = 0usize;

    while i < bytes.len() {
        let c = bytes[i];
        match c {
            b'"' => {
                // string literal: copy until unescaped closing quote
                out.push('"');
                i += 1;
                while i < bytes.len() {
                    let b = bytes[i];
                    out.push(b as char);
                    i += 1;
                    if b == b'\\' && i < bytes.len() {
                        out.push(bytes[i] as char);
                        i += 1;
                    } else if b == b'"' {
                        break;
                    }
                }
            }
            b'\'' => {
                // char literal (or Rust lifetime — a lone quote followed by
                // an identifier; copied verbatim either way)
                out.push('\'');
                i += 1;
                // look ahead for a closing quote within a char-literal span
                let mut j = i;
                let mut saw_close = false;
                let mut len = 0;
                while j < bytes.len() && len < 6 {
                    if bytes[j] == b'\\' {
                        j += 2;
                        len += 2;
                        continue;
                    }
                    if bytes[j] == b'\'' {
                        saw_close = true;
                        break;
                    }
                    if bytes[j] == b'\n' {
                        break;
                    }
                    j += 1;
                    len += 1;
                }
                if saw_close {
                    for &b in &bytes[i..=j] {
                        out.push(b as char);
                    }
                    i = j + 1;
                }
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                i += 2;
                let mut depth = 1usize;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'\n' {
                        out.push('\n');
                        i += 1;
                    } else if lang == Language::Rust
                        && bytes[i] == b'/'
                        && i + 1 < bytes.len()
                        && bytes[i + 1] == b'*'
                    {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                out.push(' ');
            }
            _ => {
                out.push(c as char);
                i += 1;
            }
        }
    }
    out
}

/// Drop the trailing `#[cfg(test)] mod tests { ... }` block from a Rust
/// source. The programmability study counts implementation code, not its
/// tests — the Sloccount-measured programs in the paper carry no test
/// modules.
pub fn strip_rust_tests(source: &str) -> String {
    match source.find("#[cfg(test)]") {
        Some(pos) => source[..pos].to_string(),
        None => source.to_string(),
    }
}

/// Per-file count result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileCount {
    /// The path as given.
    pub path: String,
    /// Detected language.
    pub language: Language,
    /// Source lines of code.
    pub sloc: usize,
}

/// Count a file on disk.
pub fn count_file(path: &Path) -> std::io::Result<FileCount> {
    let lang = Language::from_path(path).ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("unknown source language for {}", path.display()),
        )
    })?;
    let source = std::fs::read_to_string(path)?;
    Ok(FileCount {
        path: path.display().to_string(),
        language: lang,
        sloc: count(&source, lang),
    })
}

/// Count several files; returns per-file counts and the total.
pub fn count_files(paths: &[&Path]) -> std::io::Result<(Vec<FileCount>, usize)> {
    let mut out = Vec::with_capacity(paths.len());
    let mut total = 0;
    for p in paths {
        let fc = count_file(p)?;
        total += fc.sloc;
        out.push(fc);
    }
    Ok((out, total))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blank_and_comment_lines_excluded() {
        let src = "\n// comment only\nint a;\n\n/* block */\nint b; // trailing\n";
        assert_eq!(count(src, Language::CFamily), 2);
    }

    #[test]
    fn multiline_block_comment() {
        let src = "int a;\n/* spans\nseveral\nlines */\nint b;\n";
        assert_eq!(count(src, Language::CFamily), 2);
    }

    #[test]
    fn code_and_comment_on_same_line_counts() {
        let src = "int a; /* note */\n/* note */ int b;\n";
        assert_eq!(count(src, Language::CFamily), 2);
    }

    #[test]
    fn comment_markers_inside_strings_ignored() {
        let src = "const char* s = \"// not a comment\";\nconst char* t = \"/* neither */\";\n";
        assert_eq!(count(src, Language::CFamily), 2);
        let src = "char c = '/'; char d = '*'; int x;\n";
        assert_eq!(count(src, Language::CFamily), 1);
    }

    #[test]
    fn escaped_quote_in_string() {
        let src = "const char* s = \"say \\\"hi\\\" // still string\"; int a;\n";
        assert_eq!(count(src, Language::CFamily), 1);
    }

    #[test]
    fn rust_nested_block_comments() {
        let src = "fn a() {}\n/* outer /* inner */ still comment */\nfn b() {}\n";
        assert_eq!(count(src, Language::Rust), 2);
        // C does not nest: the same text leaves a trailing token
        let c_like = "int a;\n/* outer /* inner */ int b;\n";
        assert_eq!(count(c_like, Language::CFamily), 2);
    }

    #[test]
    fn rust_doc_comments_are_comments() {
        let src = "//! module docs\n/// item docs\npub fn f() {}\n";
        assert_eq!(count(src, Language::Rust), 1);
    }

    #[test]
    fn rust_lifetimes_do_not_open_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x } // comment\n";
        assert_eq!(count(src, Language::Rust), 1);
    }

    #[test]
    fn strip_rust_tests_drops_test_module() {
        let src = "pub fn f() {}\n\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n";
        let stripped = strip_rust_tests(src);
        assert!(stripped.contains("pub fn f"));
        assert!(!stripped.contains("mod tests"));
        assert_eq!(count(&stripped, Language::Rust), 1);
    }

    #[test]
    fn language_detection() {
        assert_eq!(Language::from_extension("cl"), Some(Language::CFamily));
        assert_eq!(Language::from_extension("rs"), Some(Language::Rust));
        assert_eq!(Language::from_extension("py"), None);
        assert_eq!(
            Language::from_path(Path::new("a/b/kernel.cl")),
            Some(Language::CFamily)
        );
    }

    #[test]
    fn empty_source_counts_zero() {
        assert_eq!(count("", Language::CFamily), 0);
        assert_eq!(count("\n\n\n", Language::Rust), 0);
        assert_eq!(count("/* everything\nis\ncomment */", Language::CFamily), 0);
    }

    #[test]
    fn real_kernel_source_counts_sanely() {
        let src = "// header\n__kernel void f(__global float* a) {\n    int i = get_global_id(0);\n    a[i] = 0.0f; // set\n}\n";
        assert_eq!(count(src, Language::CFamily), 4);
    }
}
