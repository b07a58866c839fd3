//! The farm's file-backed persistent store.
//!
//! One text file holds what a farm accumulates across runs: generational
//! dedup fingerprints keyed by a `(function, seed)` *scope*, one `f `
//! record each. They are only safe to replay when resuming that exact
//! scope's checkpoint — see [`crate::Dart::with_resume_fingerprints`].
//! Stores written by earlier versions also hold `v ` records (solver
//! verdicts); those are retired and skipped on load.
//!
//! Crash-safety discipline:
//!
//! * **Single writer.** Only the supervisor writes the file; workers
//!   read it at spawn and ship new records back over the wire protocol.
//!   No file locking is needed.
//! * **Checksummed records.** Every line ends with ` ~<FNV-64 of the
//!   body>`. A torn write — the classic crash-mid-append failure — is
//!   detected on load and the tail from the first bad line on is
//!   ignored, with a warning. A half-written record can therefore cost
//!   persisted fingerprints, never produce a wrong verdict.
//! * **Atomic replacement.** A flush writes the complete snapshot to
//!   `<path>.tmp` and renames it over the store, so readers and crashes
//!   only ever observe either the old or the new complete file. A stale
//!   `.tmp` from a killed flush is simply overwritten by the next one.
//! * **Unrecognized data degrades, never aborts.** A bad header or an
//!   unreadable file loads as an empty (cold) store with a warning;
//!   a checksummed record of an unknown kind (a future format
//!   extension) is skipped, not treated as corruption. The farm
//!   supervisor rewrites a store whose load warned, before any worker
//!   reads it, so each damaged or retired record is reported once.

use std::collections::BTreeSet;
use std::io::Write;
use std::path::Path;

/// First line of the store file.
const HEADER: &str = "dart-farm-store v1";

/// The in-memory image of a store file. Insertions are idempotent
/// set-unions, so merging the same worker output twice (a retried farm
/// run, a resumed shard) cannot corrupt anything.
#[derive(Debug, Default, Clone)]
pub struct FarmStore {
    /// `(scope, fingerprint)` pairs; scope = [`scope_key`]. Sorted, so
    /// the store file is deterministic for a given content.
    fingerprints: BTreeSet<(u64, u64)>,
}

/// A loaded store plus everything suspicious the loader noticed.
#[derive(Debug, Default)]
pub struct LoadedFarmStore {
    /// The usable records.
    pub store: FarmStore,
    /// Human-readable warnings (torn tail truncated, bad header, retired
    /// records skipped, …). Empty on a clean load; otherwise the file
    /// holds something `store` lacks, and the farm supervisor rewrites
    /// it from `store`. The callers print these to stderr; none of them
    /// is fatal — the cost is only lost fingerprints.
    pub warnings: Vec<String>,
}

impl FarmStore {
    /// An empty store.
    pub fn new() -> FarmStore {
        FarmStore::default()
    }

    /// Loads `path`, tolerating every corruption mode by degrading (see
    /// the module docs). A missing file is a clean empty store.
    pub fn load(path: &Path) -> LoadedFarmStore {
        let mut loaded = LoadedFarmStore::default();
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return loaded,
            Err(e) => {
                loaded.warnings.push(format!(
                    "store {}: unreadable ({e}); starting cold",
                    path.display()
                ));
                return loaded;
            }
        };
        let mut lines = text.lines();
        match lines.next() {
            Some(HEADER) => {}
            Some(other) => {
                loaded.warnings.push(format!(
                    "store {}: unrecognized header `{other}`; starting cold",
                    path.display()
                ));
                return loaded;
            }
            None => {
                loaded.warnings.push(format!(
                    "store {}: empty file; starting cold",
                    path.display()
                ));
                return loaded;
            }
        }
        let mut retired = 0usize;
        for (i, line) in lines.enumerate() {
            let line_no = i + 2; // 1-based, after the header
            let Some((body, checksum)) = line.rsplit_once(" ~") else {
                loaded.warnings.push(format!(
                    "store {}: unchecksummed line {line_no} (torn write?); \
                     ignoring it and the {} line(s) after it",
                    path.display(),
                    text.lines().count().saturating_sub(line_no),
                ));
                break;
            };
            if u64::from_str_radix(checksum, 16) != Ok(fnv64(body.as_bytes())) {
                loaded.warnings.push(format!(
                    "store {}: checksum mismatch at line {line_no} (torn write?); \
                     ignoring it and the {} line(s) after it",
                    path.display(),
                    text.lines().count().saturating_sub(line_no),
                ));
                break;
            }
            if body.starts_with("v ") {
                retired += 1;
            } else if let Some(pair) = body.strip_prefix("f ") {
                let parsed = pair.split_once(' ').and_then(|(scope, key)| {
                    Some((
                        super::wire::parse_hex64(scope)?,
                        super::wire::parse_hex64(key)?,
                    ))
                });
                match parsed {
                    Some(pair) => {
                        loaded.store.fingerprints.insert(pair);
                    }
                    None => loaded.warnings.push(format!(
                        "store {}: malformed fingerprint record at line {line_no}; skipped",
                        path.display()
                    )),
                }
            } else {
                // A valid checksum over an unknown kind: a future format,
                // not corruption. Skip it, keep the rest.
                loaded.warnings.push(format!(
                    "store {}: unknown record kind at line {line_no}; skipped",
                    path.display()
                ));
            }
        }
        if retired > 0 {
            // One summary line, not one per record: a store from a
            // version that persisted solver verdicts holds thousands.
            loaded.warnings.push(format!(
                "store {}: skipped {retired} retired solver verdict record(s)",
                path.display()
            ));
        }
        loaded
    }

    /// Writes the complete snapshot atomically (`<path>.tmp` + rename).
    pub fn flush(&self, path: &Path) -> std::io::Result<()> {
        let mut text = String::from(HEADER);
        text.push('\n');
        for (scope, key) in &self.fingerprints {
            let body = format!("f {scope:016x} {key:016x}");
            text.push_str(&body);
            text.push_str(&format!(" ~{:016x}\n", fnv64(body.as_bytes())));
        }
        let tmp = {
            let mut t = path.to_path_buf().into_os_string();
            t.push(".tmp");
            std::path::PathBuf::from(t)
        };
        {
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(text.as_bytes())?;
            file.sync_all()?;
        }
        std::fs::rename(&tmp, path)
    }

    /// Inserts one scoped fingerprint; `true` if it was new.
    pub fn insert_fingerprint(&mut self, scope: u64, key: u64) -> bool {
        self.fingerprints.insert((scope, key))
    }

    /// The fingerprints persisted for one `(function, seed)` scope.
    pub fn fingerprints_for(&self, scope: u64) -> Vec<u64> {
        self.fingerprints
            .range((scope, 0)..=(scope, u64::MAX))
            .map(|&(_, key)| key)
            .collect()
    }

    /// Total records.
    pub fn len(&self) -> usize {
        self.fingerprints.len()
    }

    /// Whether the store holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The fingerprint scope of one session: FNV-1a over the function name,
/// a 0 separator, and the session seed's little-endian bytes. Stable
/// across runs and platforms, like the sweep's per-function seed hash.
pub fn scope_key(function: &str, seed: u64) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in function
        .bytes()
        .chain(std::iter::once(0))
        .chain(seed.to_le_bytes())
    {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// FNV-1a over raw bytes — the per-line checksum.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("dart-farm-store-{}-{name}", std::process::id()))
    }

    /// One checksummed store line.
    fn record(body: &str) -> String {
        format!("{body} ~{:016x}\n", fnv64(body.as_bytes()))
    }

    fn sample() -> FarmStore {
        let mut store = FarmStore::new();
        store.insert_fingerprint(1, 0xabc);
        store.insert_fingerprint(1, 0xdef);
        store.insert_fingerprint(2, 0xabc);
        store
    }

    #[test]
    fn flush_and_load_round_trip() {
        let path = temp_path("roundtrip");
        let store = sample();
        store.flush(&path).unwrap();
        let loaded = FarmStore::load(&path);
        assert!(loaded.warnings.is_empty(), "{:?}", loaded.warnings);
        assert_eq!(loaded.store.fingerprints, store.fingerprints);
        assert_eq!(loaded.store.fingerprints_for(1), vec![0xabc, 0xdef]);
        assert_eq!(loaded.store.fingerprints_for(2), vec![0xabc]);
        assert_eq!(loaded.store.fingerprints_for(3), Vec::<u64>::new());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_a_clean_cold_store() {
        let loaded = FarmStore::load(&temp_path("never-created"));
        assert!(loaded.store.is_empty());
        assert!(loaded.warnings.is_empty());
    }

    #[test]
    fn torn_tail_is_truncated_with_a_warning() {
        let path = temp_path("torn");
        sample().flush(&path).unwrap();
        // Simulate a crash mid-append: chop the file mid-line.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 7]).unwrap();
        let loaded = FarmStore::load(&path);
        assert_eq!(loaded.warnings.len(), 1, "{:?}", loaded.warnings);
        assert!(loaded.warnings[0].contains("torn write"));
        // Every surviving record is a real one; only the tail was lost.
        assert_eq!(loaded.store.len(), sample().len() - 1);
        assert!(loaded.store.fingerprints.is_subset(&sample().fingerprints));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_middle_truncates_from_the_damage_on() {
        let path = temp_path("corrupt-middle");
        sample().flush(&path).unwrap();
        let mut lines: Vec<String> = std::fs::read_to_string(&path)
            .unwrap()
            .lines()
            .map(String::from)
            .collect();
        // Flip a byte inside the second record's body.
        lines[2] = format!("X{}", &lines[2][1..]);
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        let loaded = FarmStore::load(&path);
        assert!(
            loaded
                .warnings
                .iter()
                .any(|w| w.contains("checksum mismatch")),
            "{:?}",
            loaded.warnings
        );
        // Only the records before the damage survive.
        assert_eq!(loaded.store.len(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bad_header_degrades_to_cold_cache() {
        let path = temp_path("bad-header");
        std::fs::write(&path, "some other file\nf 00 01 ~0\n").unwrap();
        let loaded = FarmStore::load(&path);
        assert!(loaded.store.is_empty());
        assert!(loaded.warnings[0].contains("unrecognized header"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unknown_record_kind_is_skipped_not_fatal() {
        let path = temp_path("unknown-kind");
        sample().flush(&path).unwrap();
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.insert_str(HEADER.len() + 1, &record("z future-record"));
        std::fs::write(&path, text).unwrap();
        let loaded = FarmStore::load(&path);
        assert!(loaded.warnings[0].contains("unknown record kind"));
        assert_eq!(loaded.store.len(), sample().len(), "all real records kept");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn flush_replaces_atomically_and_overwrites_stale_tmp() {
        let path = temp_path("atomic");
        let tmp = {
            let mut t = path.clone().into_os_string();
            t.push(".tmp");
            PathBuf::from(t)
        };
        // A stale tmp from a previously killed flush must not interfere.
        std::fs::write(&tmp, "garbage from a killed flush").unwrap();
        sample().flush(&path).unwrap();
        assert!(!tmp.exists(), "flush consumed the tmp file");
        let loaded = FarmStore::load(&path);
        assert!(loaded.warnings.is_empty());
        assert_eq!(loaded.store.len(), sample().len());
        std::fs::remove_file(&path).unwrap();
    }

    /// A store written when the farm still persisted solver verdicts:
    /// its `v ` records are skipped with one summary warning, its
    /// fingerprints survive, and the rewrite holds no `v ` record.
    #[test]
    fn retired_verdict_records_are_skipped_with_one_warning() {
        let path = temp_path("retired");
        let mut text = format!("{HEADER}\n");
        for body in ["v u 07 1", "v e 00 - unknown 0", "v u 0a1b 0"] {
            text.push_str(&record(body));
        }
        text.push_str(&record(&format!("f {:016x} {:016x}", 1, 0xabc)));
        text.push_str(&record(&format!("f {:016x} {:016x}", 2, 0xdef)));
        std::fs::write(&path, text).unwrap();
        let loaded = FarmStore::load(&path);
        assert_eq!(loaded.warnings.len(), 1, "{:?}", loaded.warnings);
        assert!(loaded.warnings[0].contains("skipped 3 retired"));
        assert_eq!(loaded.store.fingerprints_for(1), vec![0xabc]);
        assert_eq!(loaded.store.fingerprints_for(2), vec![0xdef]);
        loaded.store.flush(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(!text.lines().any(|l| l.starts_with("v ")), "{text}");
        let reloaded = FarmStore::load(&path);
        assert!(reloaded.warnings.is_empty(), "{:?}", reloaded.warnings);
        assert_eq!(reloaded.store.fingerprints, loaded.store.fingerprints);
        std::fs::remove_file(&path).unwrap();
    }

    fn store_strategy() -> impl proptest::strategy::Strategy<Value = FarmStore> {
        use proptest::prelude::*;
        proptest::collection::vec((0u64..4, any::<u64>()), 0..6).prop_map(|pairs| {
            let mut store = FarmStore::new();
            for (scope, key) in pairs {
                store.insert_fingerprint(scope, key);
            }
            store
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(32))]

        /// `FarmStore::load` reads whatever a crash, a disk error or
        /// another program left at the store path, so it never panics: not
        /// on random bytes (bare or behind a valid header), not on any
        /// truncation of a flushed store, and not on single-byte edits of
        /// one. A flushed store's fingerprints round-trip exactly, and a
        /// damaged one yields only fingerprints the store really held.
        #[test]
        fn load_never_panics_and_fingerprints_round_trip(
            store in store_strategy(),
            noise in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..200),
            edits in proptest::collection::vec(
                (proptest::prelude::any::<usize>(), proptest::prelude::any::<u8>()),
                16,
            ),
        ) {
            let path = temp_path("proptest");
            store.flush(&path).unwrap();
            let loaded = FarmStore::load(&path);
            proptest::prop_assert!(loaded.warnings.is_empty(), "{:?}", loaded.warnings);
            proptest::prop_assert_eq!(&loaded.store.fingerprints, &store.fingerprints);
            let bytes = std::fs::read(&path).unwrap();
            let load_bytes = |b: &[u8]| {
                std::fs::write(&path, b).unwrap();
                FarmStore::load(&path)
            };
            let _ = load_bytes(&noise);
            let mut headed = format!("{HEADER}\n").into_bytes();
            headed.extend_from_slice(&noise);
            let _ = load_bytes(&headed);
            for cut in 0..bytes.len() {
                let loaded = load_bytes(&bytes[..cut]);
                proptest::prop_assert!(
                    loaded.store.fingerprints.is_subset(&store.fingerprints),
                    "cut at {}", cut
                );
            }
            for (pos, byte) in &edits {
                let mut mutated = bytes.clone();
                mutated[pos % bytes.len()] = *byte;
                let loaded = load_bytes(&mutated);
                proptest::prop_assert!(
                    loaded.store.fingerprints.is_subset(&store.fingerprints),
                    "byte {} set to {}", pos % bytes.len(), byte
                );
            }
            std::fs::remove_file(&path).unwrap();
        }
    }
}
