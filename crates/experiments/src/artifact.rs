//! The one artifact layer under the persisted line formats (DESIGN.md
//! §10.1): `csamt1` margin tables, `csacp2` sweep journals and `csaq2`
//! quarantine lists, `csaw1` witnesses, and `csamon1` monitor snapshots.
//!
//! Every format decision they share is made here, once: the
//! fingerprint [`Header`] and its check policy, the [`Stale`] verdict,
//! [`read`] and [`write_atomic`], the [`Lines`] cursor with typed
//! [`Record`] accessors, the strict 16-digit [`hex`] codec, and the
//! [`Fnv64`] hasher behind every fingerprint.

use std::fmt;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::str::FromStr;

/// Why a persisted file cannot back the current run. Every case means
/// "recompute"; a stale file is never silently reused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stale {
    /// No file exists at the path (a first run; not an error).
    Missing,
    /// A header field differs from the run about to use the file.
    Mismatch {
        /// The field's key, or `"tag"` for the format tag.
        field: &'static str,
        /// The value this run expects.
        expected: String,
        /// The value the file holds.
        found: String,
    },
    /// The file exists but cannot be read or parsed; carries a diagnostic
    /// naming the line where one applies.
    Malformed(String),
}

impl fmt::Display for Stale {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Stale::Missing => f.write_str("no such file"),
            Stale::Mismatch {
                field,
                expected,
                found,
            } => {
                write!(
                    f,
                    "fingerprint mismatch on {field} (expected {expected}, found {found})"
                )
            }
            Stale::Malformed(m) => write!(f, "malformed: {m}"),
        }
    }
}

/// A fingerprint header, `tag|key=value|...`: a format tag followed by
/// ordered, named fields — everything the file's content is a function
/// of.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Header {
    tag: &'static str,
    fields: Vec<(&'static str, String)>,
}

impl Header {
    /// A header with format tag `tag` and no fields yet.
    pub fn new(tag: &'static str) -> Header {
        Header {
            tag,
            fields: Vec::new(),
        }
    }

    /// Appends the field `key=value`.
    #[must_use]
    pub fn field(mut self, key: &'static str, value: impl fmt::Display) -> Header {
        self.fields.push((key, value.to_string()));
        self
    }

    /// The header line as written.
    pub fn line(&self) -> String {
        let mut line = self.tag.to_string();
        for (key, value) in &self.fields {
            line.push_str(&format!("|{key}={value}"));
        }
        line
    }

    /// Checks a file's header line against this one.
    ///
    /// # Errors
    ///
    /// The one policy of every format: a different tag is a
    /// [`Stale::Mismatch`] on `"tag"`; otherwise the first field that
    /// differs, in order, is the mismatch; a line with more or fewer
    /// fields is [`Stale::Malformed`].
    pub fn check(&self, line: &str) -> Result<(), Stale> {
        let mut found = line.split('|');
        let tag = found.next().unwrap_or_default();
        if tag != self.tag {
            return Err(Stale::Mismatch {
                field: "tag",
                expected: self.tag.to_string(),
                found: tag.to_string(),
            });
        }
        let found: Vec<&str> = found.collect();
        for ((key, value), got) in self.fields.iter().zip(&found) {
            let got_value = got.strip_prefix(key).and_then(|v| v.strip_prefix('='));
            if got_value != Some(value.as_str()) {
                return Err(Stale::Mismatch {
                    field: key,
                    expected: value.clone(),
                    found: got_value.unwrap_or(got).to_string(),
                });
            }
        }
        if found.len() != self.fields.len() {
            return Err(Stale::Malformed(format!(
                "header has {} fields, expected {}",
                found.len(),
                self.fields.len()
            )));
        }
        Ok(())
    }
}

/// Reads a whole artifact file.
///
/// # Errors
///
/// [`Stale::Missing`] when no file exists, [`Stale::Malformed`] on any
/// other I/O failure.
pub fn read(path: &Path) -> Result<String, Stale> {
    fs::read_to_string(path).map_err(|e| match e.kind() {
        std::io::ErrorKind::NotFound => Stale::Missing,
        _ => Stale::Malformed(format!("read {}: {e}", path.display())),
    })
}

/// Atomically replaces the file at `path` with `content`: the bytes are
/// written to a `.tmp` sibling in the same directory, fsynced, and
/// renamed over the target, and on Unix the directory is fsynced after
/// the rename. A crash at any instant leaves either the previous
/// complete file or the new complete file — never a torn one that
/// parses as a truncated-but-plausible result — and once this returns
/// the new file survives a power loss. A filesystem that cannot sync a
/// directory (EBADF or EINVAL) leaves that last step undone and still
/// counts as success, as the rename has already published the file.
/// Every artifact writer in the workspace (CSV reports, witness files,
/// the margin-table artifact, checkpoint journals, monitor snapshots)
/// goes through it.
///
/// # Errors
///
/// Propagates I/O failures (including creating parent directories).
pub fn write_atomic(path: &Path, content: &str) -> std::io::Result<()> {
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    if let Some(dir) = dir {
        fs::create_dir_all(dir)?;
    }
    // The tmp file must live in the target's directory: rename(2) is
    // only atomic within one filesystem.
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    {
        // csa-lint: allow(A001) this IS the atomic tmp+fsync+rename implementation
        let mut f = fs::File::create(&tmp)?;
        f.write_all(content.as_bytes())?;
        // Flush to stable storage before the rename publishes the file:
        // otherwise a power loss could rename an empty inode into place.
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    // The new name lives in the directory, which a power loss can still
    // roll back to the old entry until the directory itself is synced.
    #[cfg(unix)]
    sync_unsupported_is_ok(
        fs::File::open(dir.unwrap_or(Path::new("."))).and_then(|d| d.sync_all()),
    )?;
    Ok(())
}

/// The result of syncing a directory, with EBADF and EINVAL (the answers
/// of filesystems that cannot sync a directory) counted as success.
#[cfg(unix)]
fn sync_unsupported_is_ok(synced: std::io::Result<()>) -> std::io::Result<()> {
    // The numbers of EBADF and EINVAL on Linux, macOS and the BSDs.
    const EBADF: i32 = 9;
    const EINVAL: i32 = 22;
    match synced {
        Err(e) if matches!(e.raw_os_error(), Some(EBADF | EINVAL)) => Ok(()),
        synced => synced,
    }
}

/// `v` as exactly 16 lowercase hex digits: the on-disk form of every
/// f64 bit pattern, fingerprint and RNG seed.
pub fn hex(v: u64) -> String {
    format!("{v:016x}")
}

/// The inverse of [`hex`]: exactly 16 ASCII hex digits, so a shorter
/// (byte-truncated), longer or signed field is an error, never a
/// different value.
///
/// # Errors
///
/// Describes the rejected text.
pub fn parse_hex(s: &str) -> Result<u64, String> {
    match u64::from_str_radix(s, 16) {
        Ok(v) if s.len() == 16 && s.bytes().all(|b| b.is_ascii_hexdigit()) => Ok(v),
        _ => Err(format!("expected 16 hex digits, got {s:?}")),
    }
}

/// Cursor over an artifact's content lines: blank lines and `#`
/// comments are skipped, and each line is yielded, trimmed, as a
/// [`Record`] carrying its 1-based line number. Every error below is
/// [`Stale::Malformed`].
#[derive(Debug, Clone)]
pub struct Lines<'a>(std::iter::Enumerate<std::str::Lines<'a>>);

impl<'a> Lines<'a> {
    /// A cursor at the start of `text`.
    pub fn new(text: &'a str) -> Lines<'a> {
        Lines(text.lines().enumerate())
    }

    /// The next content line; the end of the text is an error naming
    /// `what` was expected.
    pub fn require(&mut self, what: impl fmt::Display) -> Result<Record<'a>, Stale> {
        self.next()
            .ok_or_else(|| Stale::Malformed(format!("unexpected end of file, expected {what}")))
    }

    /// The next content line, which must be a `tag` record of exactly
    /// `arity` fields.
    pub fn record(&mut self, tag: &str, arity: usize) -> Result<Record<'a>, Stale> {
        self.require(format_args!("`{tag}` record"))?
            .shape(tag, arity)
    }

    /// Succeeds only when no content line remains.
    pub fn finish(mut self) -> Result<(), Stale> {
        match self.next() {
            Some(r) => Err(r.malformed(format!("trailing content {:?}", r.text))),
            None => Ok(()),
        }
    }
}

impl<'a> Iterator for Lines<'a> {
    type Item = Record<'a>;

    fn next(&mut self) -> Option<Record<'a>> {
        let (i, text) = self
            .0
            .by_ref()
            .map(|(i, l)| (i, l.trim()))
            .find(|(_, l)| !l.is_empty() && !l.starts_with('#'))?;
        let mut parts = text.split('|');
        let tag = parts.next().unwrap_or_default();
        Some(Record {
            line: i + 1,
            text,
            tag,
            fields: parts.collect(),
        })
    }
}

/// One content line split on `|`: its tag and the fields after it,
/// indexed from 0. Accessors never panic; every error is a
/// [`Stale::Malformed`] naming the line.
#[derive(Debug, Clone)]
pub struct Record<'a> {
    /// 1-based line number in the file.
    pub line: usize,
    /// The whole trimmed line.
    pub text: &'a str,
    /// The first `|`-separated field.
    pub tag: &'a str,
    fields: Vec<&'a str>,
}

impl<'a> Record<'a> {
    /// Number of fields after the tag.
    pub fn arity(&self) -> usize {
        self.fields.len()
    }

    /// This record, if it is a `tag` record of exactly `arity` fields.
    pub fn shape(self, tag: &str, arity: usize) -> Result<Record<'a>, Stale> {
        if self.tag == tag && self.arity() == arity {
            return Ok(self);
        }
        let why = format!(
            "expected `{tag}` record with {arity} fields, got {:?}",
            self.text
        );
        Err(self.malformed(why))
    }

    /// Everything after `tag|`, for a payload that holds `|` itself.
    pub fn payload(&self) -> &'a str {
        self.text.get(self.tag.len() + 1..).unwrap_or_default()
    }

    /// Field `i` as text.
    pub fn str(&self, i: usize) -> Result<&'a str, Stale> {
        let field = self.fields.get(i).copied();
        field.ok_or_else(|| self.malformed(format!("missing field {i}")))
    }

    /// Field `i` as a decimal number, called `what` in the error.
    pub fn num<T: FromStr>(&self, i: usize, what: &str) -> Result<T, Stale>
    where
        T::Err: fmt::Display,
    {
        let s = self.str(i)?;
        s.parse()
            .map_err(|e| self.malformed(format!("bad {what} {s:?}: {e}")))
    }

    /// Field `i` in the [`parse_hex`] codec, called `what` in the error.
    pub fn hex(&self, i: usize, what: &str) -> Result<u64, Stale> {
        parse_hex(self.str(i)?).map_err(|e| self.malformed(format!("bad {what}: {e}")))
    }

    /// Field `i` as an f64 bit pattern, called `what` in the error.
    pub fn f64(&self, i: usize, what: &str) -> Result<f64, Stale> {
        self.hex(i, what).map(f64::from_bits)
    }

    /// A [`Stale::Malformed`] naming this record's line.
    pub fn malformed(&self, why: impl fmt::Display) -> Stale {
        Stale::Malformed(format!("line {}: {why}", self.line))
    }
}

/// Streaming FNV-1a 64-bit hasher: deterministic across platforms and
/// processes, unlike `std`'s `DefaultHasher`. Integers are hashed as
/// their little-endian bytes; `default()` starts at the offset basis.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv64 {
    /// Mixes in `bytes`.
    #[inline]
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Mixes in `v` as 8 little-endian bytes.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mismatch(field: &'static str, expected: &str, found: &str) -> Result<(), Stale> {
        let (expected, found) = (expected.to_string(), found.to_string());
        Err(Stale::Mismatch {
            field,
            expected,
            found,
        })
    }

    #[test]
    fn header_check_names_the_first_difference() {
        let h = Header::new("csat1")
            .field("kernel", 1)
            .field("pool", hex(0xab));
        assert_eq!(h.line(), "csat1|kernel=1|pool=00000000000000ab");
        assert_eq!(h.check(&h.line()), Ok(()));
        assert_eq!(h.check("csat0|kernel=1"), mismatch("tag", "csat1", "csat0"));
        assert_eq!(
            h.check("csat1|kernel=2|pool=0"),
            mismatch("kernel", "1", "2")
        );
        assert_eq!(
            h.check("csat1|kernal=1"),
            mismatch("kernel", "1", "kernal=1")
        );
        let shown = h.check("csat1|kernel=2").unwrap_err().to_string();
        assert_eq!(
            shown,
            "fingerprint mismatch on kernel (expected 1, found 2)"
        );
        for bad in ["csat1|kernel=1", "csat1|kernel=1|pool=00000000000000ab|x=1"] {
            assert!(matches!(h.check(bad), Err(Stale::Malformed(_))), "{bad}");
        }
        assert_eq!(
            read(Path::new("/nonexistent/dir/f.csat")),
            Err(Stale::Missing)
        );
    }

    #[test]
    fn hex_codec_is_strict_and_fnv_matches_reference_vectors() {
        for v in [0, 1, u64::MAX, 0.1f64.to_bits(), (-0.0f64).to_bits()] {
            assert_eq!(parse_hex(&hex(v)), Ok(v));
        }
        let full = hex(0.1f64.to_bits());
        for bad in [
            "",
            &full[..15],
            "3fb999999999999a0",
            "+fb999999999999a",
            "3fb99999999999 a",
        ] {
            assert!(parse_hex(bad).is_err(), "{bad:?} must be rejected");
        }
        let mut h = Fnv64::default();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        h.write_bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn cursor_skips_comments_and_names_lines() {
        let text = "# c\n\nh|k=1\n  e|3ff0000000000000|7  \nw|csaw1|x\nq|a\n";
        let mut lines = Lines::new(text);
        assert_eq!(lines.require("header").unwrap().line, 3);
        let e = lines.record("e", 2).unwrap();
        assert_eq!(
            (e.line, e.f64(0, "x"), e.num(1, "n")),
            (4, Ok(1.0), Ok(7u8))
        );
        let bad = e.num::<u8>(0, "count").unwrap_err().to_string();
        assert!(bad.starts_with("malformed: line 4: bad count"), "{bad}");
        assert!(e.str(2).is_err());
        let w = lines.require("witness").unwrap();
        assert_eq!((w.tag, w.payload()), ("w", "csaw1|x"));
        let err = lines.clone().record("q", 2).unwrap_err().to_string();
        assert!(
            err.contains("line 6: expected `q` record with 2 fields"),
            "{err}"
        );
        assert!(lines.clone().finish().is_err());
        lines.next();
        let eof = lines.require("header").unwrap_err().to_string();
        assert!(
            eof.contains("unexpected end of file, expected header"),
            "{eof}"
        );
    }

    #[test]
    #[cfg(unix)]
    fn unsupported_directory_sync_counts_as_success() {
        use std::io::Error;
        assert!(sync_unsupported_is_ok(Ok(())).is_ok());
        for errno in [9, 22] {
            assert!(sync_unsupported_is_ok(Err(Error::from_raw_os_error(errno))).is_ok());
        }
        // EIO, EACCES and errors without a number still fail the write.
        for e in [
            Error::from_raw_os_error(5),
            Error::from_raw_os_error(13),
            Error::other("x"),
        ] {
            assert!(sync_unsupported_is_ok(Err(e)).is_err());
        }
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_tmp() {
        let path = Path::new(crate::RESULTS_DIR).join("test_write_atomic.txt");
        write_atomic(&path, "first\n").unwrap();
        write_atomic(&path, "second\n").unwrap();
        assert_eq!(read(&path), Ok("second\n".to_string()));
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        assert!(!Path::new(&tmp).exists(), "tmp file must not survive");
        fs::remove_file(path).unwrap();
    }
}
