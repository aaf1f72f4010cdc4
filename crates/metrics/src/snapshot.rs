//! Persistent prepared-evaluator snapshots: a versioned binary codec that
//! serializes a [`PreparedOriginal`] (keyed by its original table and
//! [`MetricConfig`]) to disk, so later sessions rehydrate an [`Evaluator`]
//! with a near-memcpy load instead of re-running the O(n·a²) preparation.
//!
//! # On-disk layout (format version 1)
//!
//! All integers are little-endian; floats are stored as their IEEE-754 bit
//! patterns (`f64::to_bits`), which is what makes a rehydrated evaluator
//! assess **bit-identically** to a freshly prepared one.
//!
//! ```text
//! ┌────────────────────────────────────────────────────────────┐
//! │ header                                                     │
//! │   magic         8 bytes   "CDPSNAP\0"                      │
//! │   version       u32       FORMAT_VERSION (currently 1)     │
//! │   content_hash  u64       FNV-1a of (original, config)     │
//! │   n_sections    u32                                        │
//! ├────────────────────────────────────────────────────────────┤
//! │ section × n_sections                                       │
//! │   tag           u32       META / STATS / TABLES / PINDEX   │
//! │   len           u64       payload byte length              │
//! │   payload       len bytes                                  │
//! │   checksum      u64       FNV-1a of the payload            │
//! └────────────────────────────────────────────────────────────┘
//! ```
//!
//! Sections:
//!
//! * **META** — row/attribute counts, per-attribute dictionary sizes and
//!   ordinal flags (cross-checked against the live original at load time);
//! * **STATS** — marginal counts, probabilities, total-order keys, rank
//!   starts, `1/(c−1)` spans, chance-agreement probabilities and the
//!   per-category minimum cell distances;
//! * **TABLES** — the order-1 and order-2 contingency tables;
//! * **PINDEX** — the distinct-pattern index as its serialized parts
//!   (dictionary, multiplicities, row map); postings and the lookup table
//!   rebuild deterministically in pattern-id order.
//!
//! The original table itself is **not** stored: the loader always holds the
//! live original (it is the cache key), so the snapshot instead carries a
//! content hash of `(original, config)` and is rejected when it does not
//! match — a snapshot can never be rehydrated against the wrong data.
//!
//! # Versioning policy
//!
//! `FORMAT_VERSION` bumps on **any** layout change — there is no in-place
//! migration. A version mismatch, like every other defect (truncation,
//! bit flips, bad checksums, shape drift against the live original), makes
//! [`load`] return `None` and the caller falls back to a cold preparation,
//! which re-writes the snapshot in the current format. Corrupt snapshots
//! therefore cost one re-preparation, never a panic or a wrong result.
//!
//! # Atomicity
//!
//! [`write()`] serializes to a temp file in the target directory and
//! `rename`s it into place, so concurrent writers and killed processes
//! leave either the old file, the new file, or no file — never a torn one.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use cdp_dataset::{Code, PatternIndex, SubTable};

use crate::contingency::ContingencyTables;
use crate::evaluator::{Evaluator, LinkageMode, MetricConfig};
use crate::prepared::PreparedOriginal;

/// First bytes of every snapshot file.
pub const MAGIC: &[u8; 8] = b"CDPSNAP\0";

/// Current snapshot format version; bumped on any layout change.
pub const FORMAT_VERSION: u32 = 1;

/// File extension of snapshot files (without the dot).
pub const EXTENSION: &str = "cdpsnap";

const TAG_META: u32 = 1;
const TAG_STATS: u32 = 2;
const TAG_TABLES: u32 = 3;
const TAG_PINDEX: u32 = 4;

// ---------------------------------------------------------------------------
// FNV-1a hashing
// ---------------------------------------------------------------------------

/// Incremental 64-bit FNV-1a-style hasher, folded over little-endian
/// *words* rather than bytes: one xor-multiply per 8 input bytes (with a
/// byte-at-a-time tail), so hashing the multi-megabyte arena of a large
/// original costs ~1/8th of classic byte-FNV. Hand-rolled — the snapshot
/// format must not depend on `std`'s unstable `Hasher` output — and used
/// for both the content hash and the per-section checksums, so the word
/// folding is simply part of format v1.
struct Fnv1a(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(FNV_OFFSET)
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.0 ^= u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        for &b in chunks.remainder() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 ^= v;
        self.0 = self.0.wrapping_mul(FNV_PRIME);
    }

    /// Hash a code slice as its little-endian byte stream, four codes per
    /// word (the arena of a 100k-row original is the hash's hot loop).
    fn write_codes(&mut self, codes: &[Code]) {
        let mut chunks = codes.chunks_exact(4);
        for c in &mut chunks {
            self.0 ^= u64::from(c[0])
                | u64::from(c[1]) << 16
                | u64::from(c[2]) << 32
                | u64::from(c[3]) << 48;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        for &c in chunks.remainder() {
            self.0 ^= u64::from(c);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

fn checksum(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// Content hash of a snapshot key: the original table (shape, per-attribute
/// dictionaries, every cell) and the metric configuration. Two keys collide
/// only if FNV-1a collides; a mismatch always rejects the snapshot.
pub fn content_hash(original: &SubTable, cfg: &MetricConfig) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(original.n_rows() as u64);
    h.write_u64(original.n_attrs() as u64);
    for &j in original.attr_indices() {
        h.write_u64(j as u64);
    }
    for k in 0..original.n_attrs() {
        let attr = original.attr(k);
        h.write_u64(attr.name().len() as u64);
        h.write(attr.name().as_bytes());
        h.write_u64(u64::from(attr.kind().is_ordinal()));
        h.write_u64(attr.n_categories() as u64);
    }
    h.write_codes(original.arena());
    h.write_u64(cfg.interval_fraction.to_bits());
    h.write_u64(cfg.rsrl_window_fraction.to_bits());
    h.write_u64(cfg.prl_em_iters as u64);
    h.write_u64(match cfg.linkage {
        LinkageMode::Pairs => 0,
        LinkageMode::Blocked => 1,
    });
    h.finish()
}

// ---------------------------------------------------------------------------
// Primitive little-endian codec
// ---------------------------------------------------------------------------

struct Enc(Vec<u8>);

impl Enc {
    fn new() -> Self {
        Enc(Vec::new())
    }

    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }

    fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
}

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Some(out)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn f64(&mut self) -> Option<f64> {
        Some(f64::from_bits(self.u64()?))
    }

    fn usize(&mut self) -> Option<usize> {
        self.u64()?.try_into().ok()
    }

    /// Bulk-decode `n` little-endian `u16`s (one bounds check, not `n`).
    fn u16_vec(&mut self, n: usize) -> Option<Vec<u16>> {
        let bytes = self.take(n.checked_mul(2)?)?;
        Some(
            bytes
                .chunks_exact(2)
                .map(|c| u16::from_le_bytes([c[0], c[1]]))
                .collect(),
        )
    }

    /// Bulk-decode `n` little-endian `u32`s (one bounds check, not `n`).
    fn u32_vec(&mut self, n: usize) -> Option<Vec<u32>> {
        let bytes = self.take(n.checked_mul(4)?)?;
        Some(
            bytes
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk")))
                .collect(),
        )
    }

    fn bool(&mut self) -> Option<bool> {
        match self.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None, // a flipped flag byte must not decode
        }
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

/// File name of the snapshot for a key hash: `<hash as 16 hex digits>.cdpsnap`.
pub fn file_name(hash: u64) -> String {
    format!("{hash:016x}.{EXTENSION}")
}

/// Full path of the snapshot for `(original, cfg)` under `dir`.
pub fn snapshot_path(dir: &Path, original: &SubTable, cfg: &MetricConfig) -> PathBuf {
    dir.join(file_name(content_hash(original, cfg)))
}

fn encode(evaluator: &Evaluator) -> Vec<u8> {
    let prep = evaluator.prepared();
    let (n, a) = (prep.n_rows(), prep.n_attrs());

    let mut meta = Enc::new();
    meta.usize(n);
    meta.usize(a);
    for k in 0..a {
        meta.usize(prep.cats(k));
        meta.u8(u8::from(prep.is_ordinal(k)));
    }

    let mut stats = Enc::new();
    for k in 0..a {
        stats.f64(prep.inv_span(k));
        stats.f64(prep.chance_agreement(k));
        for &c in prep.counts(k) {
            stats.u32(c);
        }
        for &p in prep.probs(k) {
            stats.f64(p);
        }
        for &o in prep.order_keys(k) {
            stats.usize(o);
        }
        for &r in prep.rank_start(k) {
            stats.usize(r);
        }
        for x in 0..prep.cats(k) {
            stats.f64(prep.min_cell_dist(k, x as Code));
        }
    }

    let mut tables = Enc::new();
    let (singles, pairs, cats) = prep.tables().raw_parts();
    debug_assert_eq!(cats.len(), a);
    for single in singles {
        for &c in single {
            tables.u32(c);
        }
    }
    tables.usize(pairs.len());
    for (i, j, table) in pairs {
        tables.usize(*i);
        tables.usize(*j);
        for &c in table {
            tables.u32(c);
        }
    }

    let mut pindex = Enc::new();
    let (codes, mult, row_pid) = prep.pattern_index().raw_parts();
    pindex.usize(mult.len());
    for &c in codes {
        pindex.u16(c);
    }
    for &m in mult {
        pindex.u32(m);
    }
    for &p in row_pid {
        pindex.u32(p);
    }

    let sections: [(u32, Vec<u8>); 4] = [
        (TAG_META, meta.0),
        (TAG_STATS, stats.0),
        (TAG_TABLES, tables.0),
        (TAG_PINDEX, pindex.0),
    ];

    let mut out = Enc::new();
    out.0.extend_from_slice(MAGIC);
    out.u32(FORMAT_VERSION);
    out.u64(content_hash(prep.orig(), evaluator.config()));
    out.u32(sections.len() as u32);
    for (tag, payload) in &sections {
        out.u32(*tag);
        out.u64(payload.len() as u64);
        out.0.extend_from_slice(payload);
        out.u64(checksum(payload));
    }
    out.0
}

/// Serialize `evaluator`'s preparation into `dir` (created if missing),
/// atomically: the bytes land in a temp file that is renamed onto the
/// final `<content-hash>.cdpsnap` name.
///
/// # Errors
/// Any filesystem error; the evaluator cache treats a failed write as a
/// non-event (the snapshot is an optimization, not a durability contract).
pub fn write(evaluator: &Evaluator, dir: &Path) -> io::Result<PathBuf> {
    static WRITE_SEQ: AtomicU64 = AtomicU64::new(0);
    std::fs::create_dir_all(dir)?;
    let hash = content_hash(evaluator.original(), evaluator.config());
    let path = dir.join(file_name(hash));
    let tmp = dir.join(format!(
        ".{:016x}.{}.{}.tmp",
        hash,
        std::process::id(),
        WRITE_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&tmp, encode(evaluator))?;
    match std::fs::rename(&tmp, &path) {
        Ok(()) => Ok(path),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

// ---------------------------------------------------------------------------
// Deserialization
// ---------------------------------------------------------------------------

/// Header and section table of a parsed snapshot file.
struct Parsed<'a> {
    content_hash: u64,
    sections: Vec<(u32, &'a [u8])>,
}

/// Structural parse: magic, version, section framing and checksums. Does
/// not interpret payloads.
fn parse(bytes: &[u8]) -> Option<Parsed<'_>> {
    let mut d = Dec::new(bytes);
    if d.take(MAGIC.len())? != MAGIC {
        return None;
    }
    if d.u32()? != FORMAT_VERSION {
        return None;
    }
    let content_hash = d.u64()?;
    let n_sections = d.u32()?;
    let mut sections = Vec::with_capacity(n_sections as usize);
    for _ in 0..n_sections {
        let tag = d.u32()?;
        let len = d.usize()?;
        let payload = d.take(len)?;
        if d.u64()? != checksum(payload) {
            return None;
        }
        sections.push((tag, payload));
    }
    if !d.done() {
        return None; // trailing garbage
    }
    Some(Parsed {
        content_hash,
        sections,
    })
}

fn section<'a>(parsed: &Parsed<'a>, tag: u32) -> Option<&'a [u8]> {
    parsed
        .sections
        .iter()
        .find(|(t, _)| *t == tag)
        .map(|(_, p)| *p)
}

/// Rehydrate an evaluator for `(original, cfg)` from the snapshot at
/// `path`. Returns `None` — never panics, never a partial value — when the
/// file is missing, truncated, bit-flipped, from another format version,
/// or written for a different `(original, cfg)` key; callers fall back to
/// a cold preparation.
pub fn load(path: &Path, original: &SubTable, cfg: &MetricConfig) -> Option<Evaluator> {
    let bytes = std::fs::read(path).ok()?;
    let parsed = parse(&bytes)?;
    if parsed.content_hash != content_hash(original, cfg) {
        return None;
    }
    let (n, a) = (original.n_rows(), original.n_attrs());

    // META: the snapshot's shape must match the live original exactly
    let mut d = Dec::new(section(&parsed, TAG_META)?);
    if d.usize()? != n || d.usize()? != a {
        return None;
    }
    let mut cats = Vec::with_capacity(a);
    let mut ordinal = Vec::with_capacity(a);
    for k in 0..a {
        let c = d.usize()?;
        let o = d.bool()?;
        if c != original.attr(k).n_categories() || o != original.attr(k).kind().is_ordinal() {
            return None;
        }
        cats.push(c);
        ordinal.push(o);
    }
    if !d.done() {
        return None;
    }

    // STATS
    let mut d = Dec::new(section(&parsed, TAG_STATS)?);
    let mut inv_span = Vec::with_capacity(a);
    let mut chance_agreement = Vec::with_capacity(a);
    let mut counts = Vec::with_capacity(a);
    let mut probs = Vec::with_capacity(a);
    let mut order_keys = Vec::with_capacity(a);
    let mut rank_start = Vec::with_capacity(a);
    let mut min_cell_dist = Vec::with_capacity(a);
    for &c in &cats {
        inv_span.push(d.f64()?);
        chance_agreement.push(d.f64()?);
        counts.push(d.u32_vec(c)?);
        probs.push((0..c).map(|_| d.f64()).collect::<Option<Vec<_>>>()?);
        order_keys.push((0..c).map(|_| d.usize()).collect::<Option<Vec<_>>>()?);
        rank_start.push((0..c).map(|_| d.usize()).collect::<Option<Vec<_>>>()?);
        min_cell_dist.push((0..c).map(|_| d.f64()).collect::<Option<Vec<_>>>()?);
    }
    if !d.done() {
        return None;
    }

    // TABLES
    let mut d = Dec::new(section(&parsed, TAG_TABLES)?);
    let mut singles = Vec::with_capacity(a);
    for &c in &cats {
        singles.push(d.u32_vec(c)?);
    }
    let n_pairs = d.usize()?;
    if n_pairs != a * a.saturating_sub(1) / 2 {
        return None;
    }
    let mut pairs = Vec::with_capacity(n_pairs);
    for _ in 0..n_pairs {
        let i = d.usize()?;
        let j = d.usize()?;
        if i >= a || j >= a || i >= j {
            return None;
        }
        let cells = cats[i].checked_mul(cats[j])?;
        let table = d.u32_vec(cells)?;
        pairs.push((i, j, table));
    }
    if !d.done() {
        return None;
    }
    let tables = ContingencyTables::from_parts(singles, pairs, cats.clone(), n);

    // PINDEX
    let mut d = Dec::new(section(&parsed, TAG_PINDEX)?);
    let n_patterns = d.usize()?;
    let n_codes = n_patterns.checked_mul(a)?;
    let codes = d.u16_vec(n_codes)?;
    let mult = d.u32_vec(n_patterns)?;
    let row_pid = d.u32_vec(n)?;
    if !d.done() {
        return None;
    }
    let pattern_index = PatternIndex::from_parts(a, codes, mult, row_pid, &cats).ok()?;

    let prep = PreparedOriginal::from_parts(
        original.clone(),
        cats,
        ordinal,
        inv_span,
        counts,
        probs,
        order_keys,
        rank_start,
        tables,
        chance_agreement,
        pattern_index,
        min_cell_dist,
    );
    Evaluator::from_prepared(prep, *cfg).ok()
}

// ---------------------------------------------------------------------------
// Inspection (for `cdp cache ls` / `verify`)
// ---------------------------------------------------------------------------

/// Summary of one snapshot file, as reported by [`inspect`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// Format version of the file.
    pub version: u32,
    /// Content hash of the `(original, config)` key it was written for.
    pub content_hash: u64,
    /// Records of the snapshotted original.
    pub rows: usize,
    /// Protected attributes of the snapshotted original.
    pub attrs: usize,
    /// Total file size in bytes.
    pub bytes: u64,
}

/// Structurally verify the snapshot at `path` without its original: magic,
/// format version, section framing and every checksum, plus the META
/// shape. (The content hash can only be cross-checked by [`load`], which
/// holds the live original.)
///
/// # Errors
/// A human-readable description of the first defect found.
pub fn inspect(path: &Path) -> std::result::Result<SnapshotInfo, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("unreadable: {e}"))?;
    let mut d = Dec::new(&bytes);
    if d.take(MAGIC.len()) != Some(MAGIC.as_slice()) {
        return Err("bad magic (not a snapshot file)".into());
    }
    let version = d.u32().ok_or("truncated header")?;
    if version != FORMAT_VERSION {
        return Err(format!(
            "format version {version} (this build reads {FORMAT_VERSION})"
        ));
    }
    let parsed = parse(&bytes).ok_or("corrupt framing or checksum mismatch")?;
    let mut m = Dec::new(section(&parsed, TAG_META).ok_or("missing META section")?);
    let rows = m.usize().ok_or("truncated META")?;
    let attrs = m.usize().ok_or("truncated META")?;
    Ok(SnapshotInfo {
        version,
        content_hash: parsed.content_hash,
        rows,
        attrs,
        bytes: bytes.len() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdp_dataset::generators::{DatasetKind, GeneratorConfig};

    fn original(n: usize) -> SubTable {
        DatasetKind::Adult
            .generate(&GeneratorConfig::seeded(21).with_records(n))
            .protected_subtable()
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("cdp_snapshot_tests").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn masked(s: &SubTable) -> SubTable {
        let mut m = s.clone();
        for r in 0..m.n_rows() {
            let k = r % m.n_attrs();
            let c = m.attr(k).n_categories() as Code;
            m.set(r, k, (m.get(r, k) + 1) % c);
        }
        m
    }

    #[test]
    fn warming_the_link_table_leaves_snapshot_bytes_unchanged() {
        let s = original(120);
        let cfg = MetricConfig::default();
        let ev = Evaluator::new(&s, cfg).unwrap();
        let cold = encode(&ev);
        ev.assess(&masked(&s));
        assert!(
            ev.prepared().link_table_fill().1 > 0,
            "assessment fills slots"
        );
        assert_eq!(encode(&ev), cold, "the link table is not serialized");
        // a rehydrated preparation starts with an empty table
        let dir = tmp_dir("link_table");
        let path = write(&ev, &dir).unwrap();
        let loaded = load(&path, &s, &cfg).unwrap();
        assert_eq!(loaded.prepared().link_table_fill().1, 0);
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let s = original(120);
        let cfg = MetricConfig::default();
        let ev = Evaluator::new(&s, cfg).unwrap();
        let dir = tmp_dir("roundtrip");
        let path = write(&ev, &dir).unwrap();
        assert_eq!(path, snapshot_path(&dir, &s, &cfg));
        let loaded = load(&path, &s, &cfg).expect("clean snapshot loads");
        // whole assessments, identity and a masked file, bit for bit
        let m = masked(&s);
        assert_eq!(ev.evaluate(&s), loaded.evaluate(&s));
        assert_eq!(ev.evaluate(&m), loaded.evaluate(&m));
        // the delta-evaluation engine works on the rehydrated state too
        let mut m2 = m.clone();
        let st = loaded.assess(&m2);
        let old = m2.get(3, 0);
        m2.set(3, 0, (old + 2) % loaded.prepared().cats(0) as Code);
        let patched = loaded.reassess_mutation(&st, &m2, 3, 0, old);
        assert_eq!(patched.assessment, ev.assess(&m2).assessment);
    }

    #[test]
    fn pairs_linkage_config_round_trips_too() {
        let s = original(80);
        let cfg = MetricConfig {
            linkage: LinkageMode::Pairs,
            ..MetricConfig::default()
        };
        let ev = Evaluator::new(&s, cfg).unwrap();
        let dir = tmp_dir("pairs");
        let path = write(&ev, &dir).unwrap();
        let loaded = load(&path, &s, &cfg).expect("loads under pairs linkage");
        assert_eq!(ev.evaluate(&masked(&s)), loaded.evaluate(&masked(&s)));
        // the blocked-mode snapshot is a different key: absent
        assert!(load(
            &snapshot_path(&dir, &s, &MetricConfig::default()),
            &s,
            &MetricConfig::default()
        )
        .is_none());
    }

    #[test]
    fn wrong_original_and_wrong_config_are_rejected() {
        let s = original(100);
        let cfg = MetricConfig::default();
        let ev = Evaluator::new(&s, cfg).unwrap();
        let dir = tmp_dir("wrongkey");
        let path = write(&ev, &dir).unwrap();
        // same shape, different cells
        let other = original(100);
        let other = masked(&other);
        assert!(load(&path, &other, &cfg).is_none(), "stale content hash");
        // same original, different config
        let other_cfg = MetricConfig {
            interval_fraction: 0.2,
            ..cfg
        };
        assert!(load(&path, &s, &other_cfg).is_none(), "different config");
        // the right key still loads
        assert!(load(&path, &s, &cfg).is_some());
    }

    #[test]
    fn truncation_at_any_boundary_falls_back() {
        let s = original(60);
        let cfg = MetricConfig::default();
        let ev = Evaluator::new(&s, cfg).unwrap();
        let dir = tmp_dir("trunc");
        let path = write(&ev, &dir).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // a spread of truncation points: inside the header, inside each
        // section, and one byte short of complete
        for frac in [
            1,
            8,
            12,
            24,
            bytes.len() / 4,
            bytes.len() / 2,
            bytes.len() - 1,
        ] {
            let cut = &bytes[..frac];
            let p = dir.join("cut.cdpsnap");
            std::fs::write(&p, cut).unwrap();
            assert!(
                load(&p, &s, &cfg).is_none(),
                "truncated at {frac} must not load"
            );
            assert!(inspect(&p).is_err(), "truncated at {frac} must not verify");
        }
    }

    #[test]
    fn a_flipped_byte_in_each_section_falls_back() {
        let s = original(60);
        let cfg = MetricConfig::default();
        let ev = Evaluator::new(&s, cfg).unwrap();
        let dir = tmp_dir("flip");
        let path = write(&ev, &dir).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // flip one byte at evenly spread offsets covering every section
        let step = (bytes.len() / 16).max(1);
        for offset in (0..bytes.len()).step_by(step) {
            let mut corrupt = bytes.clone();
            corrupt[offset] ^= 0x40;
            let p = dir.join("flip.cdpsnap");
            std::fs::write(&p, &corrupt).unwrap();
            assert!(
                load(&p, &s, &cfg).is_none(),
                "bit flip at {offset} must not load"
            );
        }
    }

    #[test]
    fn wrong_format_version_is_rejected() {
        let s = original(50);
        let cfg = MetricConfig::default();
        let ev = Evaluator::new(&s, cfg).unwrap();
        let dir = tmp_dir("version");
        let path = write(&ev, &dir).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(load(&path, &s, &cfg).is_none());
        let err = inspect(&path).unwrap_err();
        assert!(err.contains("version"), "{err}");
    }

    #[test]
    fn concurrent_writers_leave_a_loadable_file() {
        let s = original(80);
        let cfg = MetricConfig::default();
        let ev = Evaluator::new(&s, cfg).unwrap();
        let dir = tmp_dir("concurrent");
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let (ev, dir) = (&ev, &dir);
                scope.spawn(move || write(ev, dir).unwrap());
            }
        });
        // whatever interleaving the renames took, the final file is whole
        let path = snapshot_path(&dir, &s, &cfg);
        let loaded = load(&path, &s, &cfg).expect("atomic rename keeps the file whole");
        assert_eq!(ev.evaluate(&s), loaded.evaluate(&s));
        // and no temp litter survives
        let stray = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_none_or(|x| x != EXTENSION))
            .count();
        assert_eq!(stray, 0, "temp files must be renamed away");
    }

    #[test]
    fn inspect_reports_the_header() {
        let s = original(70);
        let cfg = MetricConfig::default();
        let ev = Evaluator::new(&s, cfg).unwrap();
        let dir = tmp_dir("inspect");
        let path = write(&ev, &dir).unwrap();
        let info = inspect(&path).unwrap();
        assert_eq!(info.version, FORMAT_VERSION);
        assert_eq!(info.content_hash, content_hash(&s, &cfg));
        assert_eq!(info.rows, 70);
        assert_eq!(info.attrs, s.n_attrs());
        assert_eq!(info.bytes, std::fs::metadata(&path).unwrap().len());
        // not-a-snapshot files are named as such
        let junk = dir.join("junk.cdpsnap");
        std::fs::write(&junk, b"hello").unwrap();
        assert!(inspect(&junk).unwrap_err().contains("magic"));
    }

    #[test]
    fn missing_file_is_a_clean_miss() {
        let s = original(40);
        let cfg = MetricConfig::default();
        assert!(load(Path::new("/nonexistent/zzz.cdpsnap"), &s, &cfg).is_none());
    }
}
