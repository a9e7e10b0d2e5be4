//! Versioned on-disk content-addressed result store.
//!
//! The in-process memo cache (`spt::sweep`) already keys every pipeline
//! phase by content fingerprints; this module extends those keys to a
//! cache *directory* so phase results survive the process. A long-running
//! `spt-serve` daemon (and any sweep opened with [`crate::Sweep::with_store`])
//! answers repeated `(program, config, fuel)` requests from disk instead
//! of re-simulating.
//!
//! ## Entry format
//!
//! One entry is one file, `<dir>/<kind>-<key as 016x>.json`, holding a
//! JSON envelope:
//!
//! ```text
//! {"spt_store_schema": 1, "kind": "spt_sim", "key": "00ab...", "check": "3f...", "payload": {...}}
//! ```
//!
//! * `spt_store_schema` — the store's schema version ([`STORE_SCHEMA`]).
//!   Bump it whenever the payload encoding of any kind changes; readers
//!   treat every other version as a miss.
//! * `kind` / `key` — must match the requested entry (a renamed or
//!   misplaced file never serves the wrong result).
//! * `check` — FNV-1a of the serialized payload bytes, so silent
//!   truncation or corruption inside an otherwise-parseable envelope is
//!   still detected.
//!
//! **Robustness contract:** a missing, oversized ([`MAX_ENTRY_BYTES`]),
//! truncated, unparseable, version-mismatched, or checksum-failing entry
//! is a *miss* — never a panic, never a partial result — and the next
//! [`DiskStore::save`] for that key simply overwrites it. Writes go through
//! a temp file plus rename so concurrent readers of the same directory
//! only ever observe complete entries.
//!
//! The store is deliberately value-agnostic: it stores [`Json`] payloads.
//! Complete round-trip encoders for the two expensive phase results
//! ([`BaselineReport`], [`SptReport`]) live here too; profile and compile
//! results are cheap to recompute and stay in-memory only.

use crate::json::Json;
use spt_sim::{BaselineReport, CycleBreakdown, PerCoreStats, PerLoopStats, SptReport};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Version of the on-disk entry encoding. Entries written under any other
/// version read as misses.
///
/// v2: report payloads gained `superstep_hits` / `superstep_misses`.
/// v3: the `cache` object of stored `response` payloads gained the
/// `dep_profile` hit/miss pair.
pub const STORE_SCHEMA: u32 = 3;

/// Largest entry file [`DiskStore::load`] reads; a bigger file is a reject
/// and is never read into memory. A store warmed by every experiment at
/// `--scale full` holds no entry over 35,215 bytes (the `spt_explain`
/// response; reports stay under 2.2 KB), so this leaves about 30x
/// headroom.
pub const MAX_ENTRY_BYTES: u64 = 1 << 20;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes`, seeded with `h` (chainable).
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// One-shot FNV-1a fingerprint of a byte string.
pub fn fingerprint_bytes(bytes: &[u8]) -> u64 {
    fnv1a(FNV_OFFSET, bytes)
}

/// Cumulative counters of one store handle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Entries served from disk.
    pub hits: u64,
    /// Lookups that found no usable entry.
    pub misses: u64,
    /// Of those misses, entries that existed but were rejected (corrupt,
    /// truncated, wrong schema version, wrong kind/key, bad checksum).
    pub rejects: u64,
    /// Entries written.
    pub writes: u64,
}

impl crate::json::ToJson for StoreStats {
    fn to_json(&self) -> Json {
        Json::obj()
            .with("hits", self.hits)
            .with("misses", self.misses)
            .with("rejects", self.rejects)
            .with("writes", self.writes)
    }
}

/// A content-addressed cache directory of `fingerprint → JSON payload`
/// entries. Cheap to clone behind an `Arc`; all methods take `&self`.
#[derive(Debug)]
pub struct DiskStore {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    rejects: AtomicU64,
    writes: AtomicU64,
    tmp_seq: AtomicU64,
}

impl DiskStore {
    /// Open (creating if needed) a store rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<DiskStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(DiskStore {
            dir,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            rejects: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            tmp_seq: AtomicU64::new(0),
        })
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            rejects: self.rejects.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
        }
    }

    fn entry_path(&self, kind: &str, key: u64) -> PathBuf {
        self.dir.join(format!("{kind}-{key:016x}.json"))
    }

    /// Look up the payload stored for `(kind, key)`. Any defect in the
    /// entry — missing file, a file over [`MAX_ENTRY_BYTES`], unparseable
    /// JSON, wrong schema version, wrong kind or key, failed checksum —
    /// reads as `None`.
    pub fn load(&self, kind: &str, key: u64) -> Option<Json> {
        let path = self.entry_path(kind, key);
        let Ok(file) = std::fs::File::open(&path) else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        // The entry exists: from here on, any defect — an oversized file
        // or non-UTF-8 bytes included — is a reject, not a plain miss. The
        // length is checked before reading, and the read is capped too in
        // case the file grows in between.
        let mut bytes = Vec::new();
        let within_limit = file.metadata().is_ok_and(|m| m.len() <= MAX_ENTRY_BYTES)
            && file
                .take(MAX_ENTRY_BYTES + 1)
                .read_to_end(&mut bytes)
                .is_ok_and(|n| n as u64 <= MAX_ENTRY_BYTES);
        match within_limit
            .then_some(bytes)
            .and_then(|b| String::from_utf8(b).ok())
            .and_then(|text| Self::decode_entry(&text, kind, key))
        {
            Some(payload) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(payload)
            }
            None => {
                // The file exists but is unusable: a reject, counted as a
                // miss too so hit-rate math stays simple.
                self.misses.fetch_add(1, Ordering::Relaxed);
                self.rejects.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn decode_entry(text: &str, kind: &str, key: u64) -> Option<Json> {
        let doc = Json::parse(text).ok()?;
        if doc.get("spt_store_schema")?.as_u64()? != STORE_SCHEMA as u64 {
            return None;
        }
        if doc.get("kind")?.as_str()? != kind {
            return None;
        }
        if doc.get("key")?.as_str()? != format!("{key:016x}") {
            return None;
        }
        let payload = doc.get("payload")?;
        let check = doc.get("check")?.as_str()?;
        if check != format!("{:016x}", fingerprint_bytes(payload.dump().as_bytes())) {
            return None;
        }
        Some(payload.clone())
    }

    /// Persist `payload` as the entry for `(kind, key)`, overwriting any
    /// existing (possibly corrupt) entry. Write failures are swallowed —
    /// the store is a cache, not a source of truth — but the entry is
    /// never left half-written (temp file + rename).
    pub fn save(&self, kind: &str, key: u64, payload: &Json) {
        let body = payload.dump();
        let envelope = Json::obj()
            .with("spt_store_schema", STORE_SCHEMA)
            .with("kind", kind)
            .with("key", format!("{key:016x}"))
            .with(
                "check",
                format!("{:016x}", fingerprint_bytes(body.as_bytes())),
            )
            .with("payload", payload.clone());
        let seq = self.tmp_seq.fetch_add(1, Ordering::Relaxed);
        let tmp = self.dir.join(format!(
            ".tmp-{}-{seq}-{kind}-{key:016x}",
            std::process::id()
        ));
        if std::fs::write(&tmp, envelope.dump()).is_ok()
            && std::fs::rename(&tmp, self.entry_path(kind, key)).is_ok()
        {
            self.writes.fetch_add(1, Ordering::Relaxed);
        } else {
            let _ = std::fs::remove_file(&tmp);
        }
    }

    /// Flush store metadata: a `_meta.json` snapshot of the schema version
    /// and this handle's counters. Called by the daemon's graceful
    /// shutdown; entries themselves are already durable at `save` time.
    pub fn flush(&self) {
        use crate::json::ToJson as _;
        let meta = Json::obj()
            .with("spt_store_schema", STORE_SCHEMA)
            .with("stats", self.stats().to_json());
        let tmp = self.dir.join(format!(".tmp-meta-{}", std::process::id()));
        if std::fs::write(&tmp, meta.pretty()).is_ok() {
            let _ = std::fs::rename(&tmp, self.dir.join("_meta.json"));
        }
    }
}

// ---------------------------------------------------------------------------
// Complete round-trip encoders for the persisted phase results
// ---------------------------------------------------------------------------
//
// These are distinct from the public `ToJson` impls in `crate::json`: those
// define the *report schema* consumed by tooling (and pinned by goldens),
// which omits fields like cache-hit counts that no figure needs. A store
// entry must reconstruct the exact struct, so every field is encoded.

fn breakdown_json(b: &CycleBreakdown) -> Json {
    Json::obj()
        .with("busy", b.busy)
        .with("pipe_stall", b.pipe_stall)
        .with("dcache_stall", b.dcache_stall)
        .with("fetch_gate", b.stall.fetch_gate)
        .with("operand", b.stall.operand)
        .with("advance", b.stall.advance)
}

fn breakdown_from(j: &Json) -> Option<CycleBreakdown> {
    let mut b = CycleBreakdown::default();
    b.busy = j.get("busy")?.as_u64()?;
    b.pipe_stall = j.get("pipe_stall")?.as_u64()?;
    b.dcache_stall = j.get("dcache_stall")?.as_u64()?;
    b.stall.fetch_gate = j.get("fetch_gate")?.as_u64()?;
    b.stall.operand = j.get("operand")?.as_u64()?;
    b.stall.advance = j.get("advance")?.as_u64()?;
    Some(b)
}

fn cache_json(c: &spt_mach::CacheStats) -> Json {
    Json::obj()
        .with("l1_hits", c.l1_hits)
        .with("l1_misses", c.l1_misses)
        .with("l2_hits", c.l2_hits)
        .with("l2_misses", c.l2_misses)
        .with("l3_hits", c.l3_hits)
        .with("l3_misses", c.l3_misses)
}

fn cache_from(j: &Json) -> Option<spt_mach::CacheStats> {
    let mut c = spt_mach::CacheStats::default();
    c.l1_hits = j.get("l1_hits")?.as_u64()?;
    c.l1_misses = j.get("l1_misses")?.as_u64()?;
    c.l2_hits = j.get("l2_hits")?.as_u64()?;
    c.l2_misses = j.get("l2_misses")?.as_u64()?;
    c.l3_hits = j.get("l3_hits")?.as_u64()?;
    c.l3_misses = j.get("l3_misses")?.as_u64()?;
    Some(c)
}

fn u64s_json(xs: &[u64]) -> Json {
    Json::Array(xs.iter().map(|&x| Json::UInt(x)).collect())
}

fn u64s_from(j: &Json) -> Option<Vec<u64>> {
    j.as_array()?.iter().map(Json::as_u64).collect()
}

fn ret_json(r: Option<i64>) -> Json {
    r.map_or(Json::Null, Json::Int)
}

fn ret_from(j: &Json) -> Option<Option<i64>> {
    match j {
        Json::Null => Some(None),
        other => other.as_i64().map(Some),
    }
}

/// Encode a [`BaselineReport`] with every field (store payload form).
pub fn baseline_report_json(r: &BaselineReport) -> Json {
    Json::obj()
        .with("cycles", r.cycles)
        .with("instrs", r.instrs)
        .with("breakdown", breakdown_json(&r.breakdown))
        .with("cache", cache_json(&r.cache))
        .with("bp_mispredicts", r.bp_mispredicts)
        .with("bp_lookups", r.bp_lookups)
        .with("loop_cycles", u64s_json(&r.loop_cycles))
        .with("loop_instrs", u64s_json(&r.loop_instrs))
        .with("ret", ret_json(r.ret))
        .with("steps", r.steps)
        .with("out_of_fuel", r.out_of_fuel)
        .with("superstep_hits", r.superstep_hits)
        .with("superstep_misses", r.superstep_misses)
}

/// Decode a [`BaselineReport`]; `None` on any missing or mistyped field.
pub fn baseline_report_from_json(j: &Json) -> Option<BaselineReport> {
    Some(BaselineReport {
        cycles: j.get("cycles")?.as_u64()?,
        instrs: j.get("instrs")?.as_u64()?,
        breakdown: breakdown_from(j.get("breakdown")?)?,
        cache: cache_from(j.get("cache")?)?,
        bp_mispredicts: j.get("bp_mispredicts")?.as_u64()?,
        bp_lookups: j.get("bp_lookups")?.as_u64()?,
        loop_cycles: u64s_from(j.get("loop_cycles")?)?,
        loop_instrs: u64s_from(j.get("loop_instrs")?)?,
        ret: ret_from(j.get("ret")?)?,
        steps: j.get("steps")?.as_u64()?,
        out_of_fuel: j.get("out_of_fuel")?.as_bool()?,
        superstep_hits: j.get("superstep_hits")?.as_u64()?,
        superstep_misses: j.get("superstep_misses")?.as_u64()?,
    })
}

fn per_loop_json(l: &PerLoopStats) -> Json {
    Json::obj()
        .with("id", l.id)
        .with("cycles", l.cycles)
        .with("instrs", l.instrs)
        .with("forks", l.forks)
        .with("fast_commits", l.fast_commits)
        .with("replays", l.replays)
        .with("kills", l.kills)
        .with("spec_instrs", l.spec_instrs)
        .with("spec_misspec", l.spec_misspec)
}

fn per_loop_from(j: &Json) -> Option<PerLoopStats> {
    Some(PerLoopStats {
        id: j.get("id")?.as_u64()? as usize,
        cycles: j.get("cycles")?.as_u64()?,
        instrs: j.get("instrs")?.as_u64()?,
        forks: j.get("forks")?.as_u64()?,
        fast_commits: j.get("fast_commits")?.as_u64()?,
        replays: j.get("replays")?.as_u64()?,
        kills: j.get("kills")?.as_u64()?,
        spec_instrs: j.get("spec_instrs")?.as_u64()?,
        spec_misspec: j.get("spec_misspec")?.as_u64()?,
    })
}

fn per_core_json(c: &PerCoreStats) -> Json {
    Json::obj()
        .with("core", c.core)
        .with("instrs", c.instrs)
        .with("threads", c.threads)
        .with("fast_commits", c.fast_commits)
        .with("replays", c.replays)
        .with("kills", c.kills)
}

fn per_core_from(j: &Json) -> Option<PerCoreStats> {
    Some(PerCoreStats {
        core: j.get("core")?.as_u64()? as usize,
        instrs: j.get("instrs")?.as_u64()?,
        threads: j.get("threads")?.as_u64()?,
        fast_commits: j.get("fast_commits")?.as_u64()?,
        replays: j.get("replays")?.as_u64()?,
        kills: j.get("kills")?.as_u64()?,
    })
}

/// Encode an [`SptReport`] with every field (store payload form).
pub fn spt_report_json(r: &SptReport) -> Json {
    Json::obj()
        .with("cycles", r.cycles)
        .with("instrs", r.instrs)
        .with("breakdown", breakdown_json(&r.breakdown))
        .with("cache", cache_json(&r.cache))
        .with("forks", r.forks)
        .with("forks_ignored", r.forks_ignored)
        .with("fast_commits", r.fast_commits)
        .with("replays", r.replays)
        .with("kills", r.kills)
        .with("divergence_kills", r.divergence_kills)
        .with("spec_instrs_checked", r.spec_instrs_checked)
        .with("spec_instrs_discarded", r.spec_instrs_discarded)
        .with("spec_misspec", r.spec_misspec)
        .with(
            "per_loop",
            Json::Array(r.per_loop.iter().map(per_loop_json).collect()),
        )
        .with(
            "per_core",
            Json::Array(r.per_core.iter().map(per_core_json).collect()),
        )
        .with("bp_mispredicts", r.bp_mispredicts)
        .with("bp_lookups", r.bp_lookups)
        .with("ret", ret_json(r.ret))
        .with("steps", r.steps)
        .with("out_of_fuel", r.out_of_fuel)
        .with("superstep_hits", r.superstep_hits)
        .with("superstep_misses", r.superstep_misses)
}

/// Decode an [`SptReport`]; `None` on any missing or mistyped field.
pub fn spt_report_from_json(j: &Json) -> Option<SptReport> {
    Some(SptReport {
        cycles: j.get("cycles")?.as_u64()?,
        instrs: j.get("instrs")?.as_u64()?,
        breakdown: breakdown_from(j.get("breakdown")?)?,
        cache: cache_from(j.get("cache")?)?,
        forks: j.get("forks")?.as_u64()?,
        forks_ignored: j.get("forks_ignored")?.as_u64()?,
        fast_commits: j.get("fast_commits")?.as_u64()?,
        replays: j.get("replays")?.as_u64()?,
        kills: j.get("kills")?.as_u64()?,
        divergence_kills: j.get("divergence_kills")?.as_u64()?,
        spec_instrs_checked: j.get("spec_instrs_checked")?.as_u64()?,
        spec_instrs_discarded: j.get("spec_instrs_discarded")?.as_u64()?,
        spec_misspec: j.get("spec_misspec")?.as_u64()?,
        per_loop: j
            .get("per_loop")?
            .as_array()?
            .iter()
            .map(per_loop_from)
            .collect::<Option<Vec<_>>>()?,
        per_core: j
            .get("per_core")?
            .as_array()?
            .iter()
            .map(per_core_from)
            .collect::<Option<Vec<_>>>()?,
        bp_mispredicts: j.get("bp_mispredicts")?.as_u64()?,
        bp_lookups: j.get("bp_lookups")?.as_u64()?,
        ret: ret_from(j.get("ret")?)?,
        steps: j.get("steps")?.as_u64()?,
        out_of_fuel: j.get("out_of_fuel")?.as_bool()?,
        superstep_hits: j.get("superstep_hits")?.as_u64()?,
        superstep_misses: j.get("superstep_misses")?.as_u64()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("spt-store-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn sample_payload() -> Json {
        Json::obj().with("cycles", 123u64).with("ok", true)
    }

    #[test]
    fn save_then_load_roundtrips() {
        let store = DiskStore::open(tmp_dir("roundtrip")).unwrap();
        assert_eq!(store.load("spt_sim", 7), None);
        store.save("spt_sim", 7, &sample_payload());
        assert_eq!(store.load("spt_sim", 7), Some(sample_payload()));
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.rejects, s.writes), (1, 1, 0, 1));
    }

    #[test]
    fn kind_and_key_must_match() {
        let store = DiskStore::open(tmp_dir("kindkey")).unwrap();
        store.save("baseline", 9, &sample_payload());
        assert_eq!(store.load("spt_sim", 9), None);
        assert_eq!(store.load("baseline", 10), None);
        // A file renamed to another key's path is rejected, not served.
        std::fs::rename(
            store.entry_path("baseline", 9),
            store.entry_path("baseline", 10),
        )
        .unwrap();
        assert_eq!(store.load("baseline", 10), None);
        assert!(store.stats().rejects >= 1);
    }

    #[test]
    fn truncated_garbage_and_stale_schema_read_as_misses_and_are_overwritten() {
        let store = DiskStore::open(tmp_dir("robust")).unwrap();
        store.save("baseline", 1, &sample_payload());
        let path = store.entry_path("baseline", 1);

        // Truncated entry.
        let full = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert_eq!(store.load("baseline", 1), None);

        // Garbage bytes.
        std::fs::write(&path, b"\x00\xffnot json at all").unwrap();
        assert_eq!(store.load("baseline", 1), None);

        // Valid JSON, stale schema version.
        let stale = Json::parse(&full).unwrap().get("payload").cloned().unwrap();
        let envelope = Json::obj()
            .with("spt_store_schema", STORE_SCHEMA + 1)
            .with("kind", "baseline")
            .with("key", format!("{:016x}", 1))
            .with(
                "check",
                format!("{:016x}", fingerprint_bytes(stale.dump().as_bytes())),
            )
            .with("payload", stale);
        std::fs::write(&path, envelope.dump()).unwrap();
        assert_eq!(store.load("baseline", 1), None);

        // Tampered payload fails the checksum.
        let tampered = full.replace("123", "124");
        std::fs::write(&path, tampered).unwrap();
        assert_eq!(store.load("baseline", 1), None);

        assert_eq!(store.stats().rejects, 4);

        // Saving over a corrupt entry heals it.
        store.save("baseline", 1, &sample_payload());
        assert_eq!(store.load("baseline", 1), Some(sample_payload()));
    }

    #[test]
    fn oversized_entry_reads_as_reject_and_is_overwritten() {
        let store = DiskStore::open(tmp_dir("oversized")).unwrap();
        store.save("spt_sim", 3, &sample_payload());
        let path = store.entry_path("spt_sim", 3);
        // A well-formed envelope padded past the limit is still refused:
        // the length alone decides, before any byte is read.
        let mut planted = std::fs::read(&path).unwrap();
        planted.resize(MAX_ENTRY_BYTES as usize + 1, b' ');
        std::fs::write(&path, &planted).unwrap();
        assert_eq!(store.load("spt_sim", 3), None);
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.rejects), (0, 1, 1));

        store.save("spt_sim", 3, &sample_payload());
        assert!(std::fs::metadata(&path).unwrap().len() < MAX_ENTRY_BYTES);
        assert_eq!(store.load("spt_sim", 3), Some(sample_payload()));
    }

    #[test]
    fn flush_writes_meta() {
        let store = DiskStore::open(tmp_dir("meta")).unwrap();
        store.flush();
        let meta = std::fs::read_to_string(store.dir().join("_meta.json")).unwrap();
        let doc = Json::parse(&meta).unwrap();
        assert_eq!(
            doc.get("spt_store_schema").and_then(Json::as_u64),
            Some(STORE_SCHEMA as u64)
        );
    }

    #[test]
    fn report_encoders_roundtrip_exactly() {
        use spt_workloads::kernels::array_map;
        let prog = array_map(64, 8);
        let cfg = spt_mach::MachineConfig::default();
        let annots = spt_sim::LoopAnnotations::empty();
        let base = spt_sim::simulate_baseline(&prog, &cfg, &annots, 10_000_000);
        let back = baseline_report_from_json(&baseline_report_json(&base)).unwrap();
        assert_eq!(
            baseline_report_json(&back).dump(),
            baseline_report_json(&base).dump()
        );
        assert_eq!(back.cycles, base.cycles);
        assert_eq!(back.ret, base.ret);
        assert_eq!(back.bp_lookups, base.bp_lookups);
        assert_eq!(back.loop_instrs, base.loop_instrs);

        let out = crate::solution::evaluate_program(
            "array_map",
            &prog,
            &crate::solution::RunConfig {
                fuel: 10_000_000,
                ..Default::default()
            },
        );
        let spt = out.spt;
        let back = spt_report_from_json(&spt_report_json(&spt)).unwrap();
        assert_eq!(spt_report_json(&back).dump(), spt_report_json(&spt).dump());
        assert_eq!(back.cycles, spt.cycles);
        assert_eq!(back.per_loop.len(), spt.per_loop.len());
        assert_eq!(back.per_core.len(), spt.per_core.len());
        assert_eq!(back.ret, spt.ret);
    }
}
