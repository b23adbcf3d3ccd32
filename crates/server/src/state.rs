//! Crash-recoverable server state: a write-ahead registry journal plus an
//! optional verdict-store snapshot, both living under `--state-dir`.
//!
//! ## Journal (`registry.journal`)
//!
//! Append-only JSON lines, one event per line, written **before** the
//! in-memory effect (write-ahead discipline):
//!
//! ```json
//! {"kind":"register","name":"adult","file":"datasets/<fnv64>.csv","hash":"<fnv64>","spec":{...}}
//! {"kind":"pool","dataset":"adult","model":"psens-k","param":2,"p":2,"k":3,"ts":10}
//! {"kind":"delta","dataset":"adult","appends":[["M","30","Flu"]],"deletes":[0,3]}
//! ```
//!
//! Delta lines journal the `update` op write-ahead: cells are rendered
//! strings (`Value::render`; the empty string encodes `Missing`), parsed
//! back kind-aware against the dataset's schema on replay. Replaying the
//! base registration plus every surviving delta line reconstructs the same
//! table the live server held — a torn final delta (kill -9 mid-append) is
//! dropped exactly like any other torn tail, leaving the table at the
//! previous delta, which is also the last state any client saw
//! acknowledged.
//!
//! Pool lines carry the privacy model as a `(model, param)` pair (see
//! `psens_core::ModelSpec::from_parts`); a line written before models
//! existed has no `model` field and replays as p-sensitive k-anonymity
//! with its `p` — old journals stay replayable.
//!
//! The dataset CSV itself is stored content-addressed (`datasets/<fnv64 of
//! bytes>.csv`, written via tmp+rename), so the journal never embeds
//! megabytes of CSV and a half-written dataset file can never be confused
//! for a complete one. On boot the journal is replayed with hash
//! verification: a register line whose CSV file is missing, torn, or hashes
//! differently is **skipped** (fail-closed — the dataset simply isn't
//! there, a client re-registers it; the server never serves data it cannot
//! verify). A torn final line — the kill -9 case — is ignored; corrupt
//! interior lines are skipped with a warning.
//!
//! ## Snapshot (`pools.snap`)
//!
//! Written only on clean shutdown, via tmp+rename: one JSON line per
//! **exact** verdict (`VerdictStore::export_exact`; inferred k-failures are
//! re-derived from their ancestors on replay), closed by an end
//! marker carrying the line count and an FNV-1a hash of every preceding
//! byte. A snapshot that fails any of those checks is discarded *whole*:
//! pools then rebuild cold, and because a verdict is a pure function of
//! `(dataset, model, k, ts)` the rebuilt verdicts are byte-identical —
//! losing a snapshot costs warm-up time, never correctness.

use psens_core::{CheckStage, ModelDetail, ModelSpec, NodeCheck};
use psens_datasets::Spec;
use psens_hierarchy::Node;
use psens_microdata::JsonValue;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

const JOURNAL_FILE: &str = "registry.journal";
const SNAPSHOT_FILE: &str = "pools.snap";
const DATASETS_DIR: &str = "datasets";

/// FNV-1a 64-bit hash. Deliberately not cryptographic: the journal guards
/// against torn writes and bit rot, not an adversary with filesystem access.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A dataset reconstructed from the journal.
pub struct RecoveredDataset {
    /// Registry name.
    pub name: String,
    /// The verified CSV bytes.
    pub csv: String,
    /// The spec the dataset was registered with.
    pub spec: Spec,
}

/// One journaled `update` batch: rendered cell strings plus delete indices,
/// to be re-applied to the dataset in journal order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredDelta {
    /// Dataset the batch applies to.
    pub dataset: String,
    /// Appended rows as rendered cell strings (`""` encodes `Missing`).
    pub appends: Vec<Vec<String>>,
    /// Row indices deleted from the table as it stood before this batch.
    pub deletes: Vec<usize>,
}

/// Everything the journal yielded on replay.
#[derive(Default)]
pub struct Recovered {
    /// Datasets whose CSV passed hash verification, in journal order.
    pub registrations: Vec<RecoveredDataset>,
    /// Warm-pool keys `(dataset, model, k, ts)` to re-create, in journal
    /// order.
    pub pools: Vec<(String, ModelSpec, u32, usize)>,
    /// Update batches to re-apply, in journal order. Journal order equals
    /// apply order (the `update` op journals under the dataset's write
    /// lock), so replaying them in sequence reconstructs the same table.
    pub deltas: Vec<RecoveredDelta>,
    /// Human-readable notes about skipped lines (torn tail, corrupt line,
    /// hash mismatch). Empty on a clean replay.
    pub warnings: Vec<String>,
}

/// One exact verdict in a snapshot, tagged with its pool key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotEntry {
    /// Dataset the verdict belongs to.
    pub dataset: String,
    /// The dataset's delta count when the snapshot was written. On replay a
    /// verdict is only recorded if the recovered dataset has applied the
    /// same number of deltas — a snapshot from an older table state must
    /// not seed stale verdicts (0 for delta-free datasets and for
    /// snapshots written before deltas existed).
    pub deltas: u64,
    /// Pool key: the privacy model (with its parameter).
    pub model: ModelSpec,
    /// Pool key: k.
    pub k: u32,
    /// Pool key: suppression threshold.
    pub ts: usize,
    /// The recorded node check.
    pub check: NodeCheck,
}

/// Counters from a snapshot write, reported in the shutdown banner.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotStats {
    /// Exact verdicts written.
    pub entries: usize,
    /// Bytes in the snapshot file, end marker included.
    pub bytes: u64,
}

/// Handle on a `--state-dir`: owns the append-mode journal file.
pub struct StateDir {
    root: PathBuf,
    journal: Mutex<File>,
}

impl StateDir {
    /// Opens (creating as needed) the state directory and its journal.
    pub fn open(root: &Path) -> io::Result<StateDir> {
        std::fs::create_dir_all(root.join(DATASETS_DIR))?;
        let journal = OpenOptions::new()
            .create(true)
            .append(true)
            .open(root.join(JOURNAL_FILE))?;
        Ok(StateDir {
            root: root.to_owned(),
            journal: Mutex::new(journal),
        })
    }

    /// The directory this state lives in.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn append_line(&self, line: &JsonValue) -> io::Result<()> {
        let mut text = line.to_json();
        text.push('\n');
        let mut journal = self.journal.lock().expect("journal lock poisoned");
        journal.write_all(text.as_bytes())?;
        journal.flush()?;
        // The whole point is surviving kill -9; make the line durable now.
        journal.sync_data()
    }

    /// Journals a registration: writes the CSV content-addressed (tmp +
    /// rename, so a crash never leaves a plausible-but-torn dataset file),
    /// then appends the register line. Call **before** the in-memory insert.
    pub fn log_register(&self, name: &str, csv: &str, spec: &Spec) -> io::Result<()> {
        let hash = fnv1a64(csv.as_bytes());
        let rel = format!("{DATASETS_DIR}/{hash:016x}.csv");
        let path = self.root.join(&rel);
        if !path.exists() {
            let tmp = self.root.join(format!("{rel}.tmp"));
            std::fs::write(&tmp, csv)?;
            std::fs::rename(&tmp, &path)?;
        }
        let mut line = JsonValue::object();
        line.set("kind", JsonValue::Str("register".into()));
        line.set("name", JsonValue::Str(name.to_owned()));
        line.set("file", JsonValue::Str(rel));
        line.set("hash", JsonValue::Str(format!("{hash:016x}")));
        line.set("spec", spec.to_json());
        self.append_line(&line)
    }

    /// Journals a warm-pool creation. Call **before** inserting the store.
    /// The `p` field is still written (as the model's Conditions-`p`) so
    /// pre-model readers of the journal keep making sense of psens-k lines.
    pub fn log_pool(&self, dataset: &str, model: ModelSpec, k: u32, ts: usize) -> io::Result<()> {
        let mut line = JsonValue::object();
        line.set("kind", JsonValue::Str("pool".into()));
        line.set("dataset", JsonValue::Str(dataset.to_owned()));
        line.set("model", JsonValue::Str(model.name().to_owned()));
        line.set("param", JsonValue::Int(model.param() as i64));
        line.set("p", JsonValue::Int(i64::from(model.conditions_p())));
        line.set("k", JsonValue::Int(i64::from(k)));
        line.set("ts", JsonValue::Int(ts as i64));
        self.append_line(&line)
    }

    /// Journals an `update` batch. Call under the dataset's write lock,
    /// **before** applying the batch, so journal order equals apply order
    /// and a crash between append and apply replays the batch the client
    /// never saw acknowledged (write-ahead discipline).
    pub fn log_delta(
        &self,
        dataset: &str,
        appends: &[Vec<String>],
        deletes: &[usize],
    ) -> io::Result<()> {
        let mut line = JsonValue::object();
        line.set("kind", JsonValue::Str("delta".into()));
        line.set("dataset", JsonValue::Str(dataset.to_owned()));
        line.set(
            "appends",
            JsonValue::Array(
                appends
                    .iter()
                    .map(|row| {
                        JsonValue::Array(
                            row.iter()
                                .map(|cell| JsonValue::Str(cell.clone()))
                                .collect(),
                        )
                    })
                    .collect(),
            ),
        );
        line.set(
            "deletes",
            JsonValue::Array(
                deletes
                    .iter()
                    .map(|&ix| JsonValue::Int(ix as i64))
                    .collect(),
            ),
        );
        self.append_line(&line)
    }

    /// Replays the journal, tolerating torn tails and corrupt lines.
    /// Never panics and never errors: anything unverifiable is skipped with
    /// a warning, so recovery is fail-closed — a bad journal yields a
    /// smaller registry, never a wrong one.
    pub fn replay(&self) -> Recovered {
        let mut out = Recovered::default();
        let raw = match std::fs::read(self.root.join(JOURNAL_FILE)) {
            Ok(raw) => raw,
            Err(_) => return out,
        };
        let text = String::from_utf8_lossy(&raw);
        let mut seen_names = std::collections::HashSet::new();
        let n_lines = text.split('\n').count();
        for (i, line) in text.split('\n').enumerate() {
            if line.is_empty() {
                continue;
            }
            // The final segment only counts if the file ends in a newline
            // (split yields a trailing "" then); otherwise it's a torn
            // append from a crash mid-write and is ignored without noise
            // *unless* it happens to parse (truncation at a line boundary
            // minus the newline still yields valid JSON we can keep... no:
            // without the newline we cannot distinguish "complete line,
            // newline lost" from "torn line that happens to parse" — both
            // are the same byte sequence, and replaying a parseable final
            // line is safe either way since every line is self-contained).
            let parsed = match JsonValue::parse(line) {
                Ok(value) => value,
                Err(e) => {
                    if i == n_lines - 1 {
                        out.warnings
                            .push("journal tail is torn (crash mid-append); ignored".into());
                    } else {
                        out.warnings
                            .push(format!("journal line {} is corrupt ({e}); skipped", i + 1));
                    }
                    continue;
                }
            };
            match parsed.get("kind").and_then(|k| k.as_str().ok()) {
                Some("register") => match self.replay_register(&parsed) {
                    Ok(dataset) => {
                        if seen_names.insert(dataset.name.clone()) {
                            out.registrations.push(dataset);
                        } else {
                            out.warnings.push(format!(
                                "journal line {}: duplicate register for `{}`; first wins",
                                i + 1,
                                dataset.name
                            ));
                        }
                    }
                    Err(reason) => {
                        out.warnings
                            .push(format!("journal line {}: {reason}; skipped", i + 1));
                    }
                },
                Some("pool") => {
                    let key = (|| {
                        Some((
                            parsed.get("dataset")?.as_str().ok()?.to_owned(),
                            parse_model(&parsed)?,
                            u32::try_from(parsed.get("k")?.as_u64().ok()?).ok()?,
                            parsed.get("ts")?.as_usize().ok()?,
                        ))
                    })();
                    match key {
                        Some(key) => out.pools.push(key),
                        None => out.warnings.push(format!(
                            "journal line {}: malformed pool entry; skipped",
                            i + 1
                        )),
                    }
                }
                Some("delta") => match parse_delta_line(&parsed) {
                    Some(delta) => out.deltas.push(delta),
                    None => out.warnings.push(format!(
                        "journal line {}: malformed delta entry; skipped",
                        i + 1
                    )),
                },
                _ => {
                    out.warnings
                        .push(format!("journal line {}: unknown kind; skipped", i + 1));
                }
            }
        }
        // Drop pools and deltas whose dataset didn't survive verification.
        let names: std::collections::HashSet<&str> =
            out.registrations.iter().map(|r| r.name.as_str()).collect();
        out.pools
            .retain(|(dataset, ..)| names.contains(dataset.as_str()));
        out.deltas
            .retain(|delta| names.contains(delta.dataset.as_str()));
        out
    }

    fn replay_register(&self, line: &JsonValue) -> Result<RecoveredDataset, String> {
        let name = line
            .get("name")
            .and_then(|v| v.as_str().ok())
            .ok_or("register line missing `name`")?;
        let rel = line
            .get("file")
            .and_then(|v| v.as_str().ok())
            .ok_or("register line missing `file`")?;
        // The journal only ever writes hash-named relative paths; refuse
        // anything else so a corrupted line can't read outside the root.
        if rel.contains("..") || rel.starts_with('/') {
            return Err(format!("register `{name}` has a suspicious file path"));
        }
        let want_hash = line
            .get("hash")
            .and_then(|v| v.as_str().ok())
            .ok_or("register line missing `hash`")?;
        let csv = std::fs::read_to_string(self.root.join(rel))
            .map_err(|e| format!("register `{name}`: dataset file unreadable ({e})"))?;
        let got_hash = format!("{:016x}", fnv1a64(csv.as_bytes()));
        if got_hash != want_hash {
            return Err(format!(
                "register `{name}`: dataset hash mismatch (journal {want_hash}, file {got_hash})"
            ));
        }
        let spec_text = line
            .get("spec")
            .ok_or("register line missing `spec`")?
            .to_json();
        let spec = Spec::from_json(&spec_text)
            .map_err(|e| format!("register `{name}`: spec does not parse ({e})"))?;
        Ok(RecoveredDataset {
            name: name.to_owned(),
            csv,
            spec,
        })
    }

    /// Writes the verdict snapshot atomically (tmp + rename) with a hashed
    /// end marker. Entries should come pre-sorted (the registry exports
    /// them deterministically) so equal state writes equal bytes.
    pub fn write_snapshot(&self, entries: &[SnapshotEntry]) -> io::Result<SnapshotStats> {
        let mut body = String::new();
        for entry in entries {
            body.push_str(&snapshot_line(entry).to_json());
            body.push('\n');
        }
        let mut end = JsonValue::object();
        end.set("kind", JsonValue::Str("end".into()));
        end.set("lines", JsonValue::Int(entries.len() as i64));
        end.set(
            "hash",
            JsonValue::Str(format!("{:016x}", fnv1a64(body.as_bytes()))),
        );
        body.push_str(&end.to_json());
        body.push('\n');
        let tmp = self.root.join(format!("{SNAPSHOT_FILE}.tmp"));
        let path = self.root.join(SNAPSHOT_FILE);
        std::fs::write(&tmp, &body)?;
        std::fs::rename(&tmp, &path)?;
        Ok(SnapshotStats {
            entries: entries.len(),
            bytes: body.len() as u64,
        })
    }

    /// Loads the snapshot if — and only if — it is complete and internally
    /// consistent: the end marker must be present, its line count must
    /// match, its hash must cover every preceding byte, and every entry
    /// must parse. Any failure discards the snapshot whole (`None`): pools
    /// rebuild cold and verdicts are re-proven identical.
    pub fn load_snapshot(&self) -> Option<Vec<SnapshotEntry>> {
        let raw = std::fs::read_to_string(self.root.join(SNAPSHOT_FILE)).ok()?;
        let body_end = raw
            .strip_suffix('\n')?
            .rfind('\n')
            .map(|i| i + 1)
            .unwrap_or(0);
        let (body, last) = raw.split_at(body_end);
        let end = JsonValue::parse(last.trim_end_matches('\n')).ok()?;
        if end.get("kind")?.as_str().ok()? != "end" {
            return None;
        }
        let want_lines = end.get("lines")?.as_usize().ok()?;
        let want_hash = end.get("hash")?.as_str().ok()?;
        if format!("{:016x}", fnv1a64(body.as_bytes())) != want_hash {
            return None;
        }
        let mut entries = Vec::new();
        for line in body.split('\n') {
            if line.is_empty() {
                continue;
            }
            entries.push(parse_snapshot_line(line)?);
        }
        if entries.len() != want_lines {
            return None;
        }
        Some(entries)
    }
}

fn stage_name(stage: CheckStage) -> &'static str {
    match stage {
        CheckStage::Condition1 => "condition1",
        CheckStage::Condition2 => "condition2",
        CheckStage::KAnonymity => "k_anonymity",
        CheckStage::DetailedScan => "detailed_scan",
        CheckStage::Passed => "passed",
    }
}

fn parse_stage(text: &str) -> Option<CheckStage> {
    Some(match text {
        "condition1" => CheckStage::Condition1,
        "condition2" => CheckStage::Condition2,
        "k_anonymity" => CheckStage::KAnonymity,
        "detailed_scan" => CheckStage::DetailedScan,
        "passed" => CheckStage::Passed,
        _ => return None,
    })
}

/// The `(model, param)` pair of a journal/snapshot line, falling back to
/// p-sensitive k-anonymity with the line's `p` when the line predates
/// pluggable models.
fn parse_model(line: &JsonValue) -> Option<ModelSpec> {
    match line.get("model") {
        Some(model) => {
            let name = model.as_str().ok()?;
            let param = line.get("param")?.as_u64().ok()?;
            ModelSpec::from_parts(name, param).ok()
        }
        None => {
            let p = u32::try_from(line.get("p")?.as_u64().ok()?).ok()?;
            Some(ModelSpec::PSensitiveK { p })
        }
    }
}

fn parse_delta_line(line: &JsonValue) -> Option<RecoveredDelta> {
    let dataset = line.get("dataset")?.as_str().ok()?.to_owned();
    let appends = line
        .get("appends")?
        .as_array()
        .ok()?
        .iter()
        .map(|row| {
            row.as_array().ok().and_then(|cells| {
                cells
                    .iter()
                    .map(|cell| cell.as_str().ok().map(str::to_owned))
                    .collect::<Option<Vec<String>>>()
            })
        })
        .collect::<Option<Vec<Vec<String>>>>()?;
    let deletes = line
        .get("deletes")?
        .as_array()
        .ok()?
        .iter()
        .map(|ix| ix.as_usize().ok())
        .collect::<Option<Vec<usize>>>()?;
    Some(RecoveredDelta {
        dataset,
        appends,
        deletes,
    })
}

fn snapshot_line(entry: &SnapshotEntry) -> JsonValue {
    let mut line = JsonValue::object();
    line.set("dataset", JsonValue::Str(entry.dataset.clone()));
    // Written only when non-zero so delta-free snapshots stay byte-identical
    // to the pre-delta format (and old readers keep parsing them).
    if entry.deltas != 0 {
        line.set("deltas", JsonValue::Int(entry.deltas as i64));
    }
    line.set("model", JsonValue::Str(entry.model.name().to_owned()));
    line.set("param", JsonValue::Int(entry.model.param() as i64));
    line.set("p", JsonValue::Int(i64::from(entry.model.conditions_p())));
    line.set("k", JsonValue::Int(i64::from(entry.k)));
    line.set("ts", JsonValue::Int(entry.ts as i64));
    line.set(
        "node",
        JsonValue::Array(
            entry
                .check
                .node
                .levels()
                .iter()
                .map(|&l| JsonValue::Int(i64::from(l)))
                .collect(),
        ),
    );
    line.set(
        "violating",
        JsonValue::Int(entry.check.violating_tuples as i64),
    );
    line.set("suppressed", JsonValue::Int(entry.check.suppressed as i64));
    line.set("satisfied", JsonValue::Bool(entry.check.satisfied));
    line.set(
        "stage",
        JsonValue::Str(stage_name(entry.check.stage).to_owned()),
    );
    line.set(
        "n_groups",
        match entry.check.n_groups {
            Some(n) => JsonValue::Int(n as i64),
            None => JsonValue::Null,
        },
    );
    if let Some(detail) = entry.check.detail {
        line.set("detail_kind", JsonValue::Str(detail.kind().to_owned()));
        line.set("detail_value", JsonValue::Int(detail.value() as i64));
    }
    line
}

fn parse_snapshot_line(text: &str) -> Option<SnapshotEntry> {
    let line = JsonValue::parse(text).ok()?;
    let levels = line
        .get("node")?
        .as_array()
        .ok()?
        .iter()
        .map(|v| v.as_u64().ok().and_then(|n| u8::try_from(n).ok()))
        .collect::<Option<Vec<u8>>>()?;
    let n_groups = match line.get("n_groups")? {
        JsonValue::Null => None,
        other => Some(other.as_usize().ok()?),
    };
    // Detail is optional on the wire (absent for distinct-count models and
    // for snapshots written before models existed).
    let detail = match line.get("detail_kind") {
        Some(kind) => Some(
            ModelDetail::from_parts(
                kind.as_str().ok()?,
                line.get("detail_value")?.as_u64().ok()?,
            )
            .ok()?,
        ),
        None => None,
    };
    let deltas = match line.get("deltas") {
        Some(v) => v.as_u64().ok()?,
        None => 0,
    };
    Some(SnapshotEntry {
        dataset: line.get("dataset")?.as_str().ok()?.to_owned(),
        deltas,
        model: parse_model(&line)?,
        k: u32::try_from(line.get("k")?.as_u64().ok()?).ok()?,
        ts: line.get("ts")?.as_usize().ok()?,
        check: NodeCheck {
            node: Node(levels),
            violating_tuples: line.get("violating")?.as_usize().ok()?,
            suppressed: line.get("suppressed")?.as_usize().ok()?,
            satisfied: line.get("satisfied")?.as_bool().ok()?,
            stage: parse_stage(line.get("stage")?.as_str().ok()?)?,
            n_groups,
            detail,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use psens_datasets::fixtures::adult_fixture;

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("psens_state_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn journal_roundtrips_registers_and_pools() {
        let root = temp_root("roundtrip");
        let state = StateDir::open(&root).unwrap();
        let fixture = adult_fixture(3, 40);
        state
            .log_register("adult", &fixture.csv, &fixture.spec)
            .unwrap();
        state
            .log_pool("adult", ModelSpec::PSensitiveK { p: 2 }, 3, 10)
            .unwrap();
        state
            .log_pool("adult", ModelSpec::DistinctL { l: 3 }, 2, 0)
            .unwrap();
        // Pool lines for datasets that never registered are dropped.
        state
            .log_pool("ghost", ModelSpec::PSensitiveK { p: 1 }, 2, 0)
            .unwrap();

        let recovered = StateDir::open(&root).unwrap().replay();
        assert_eq!(recovered.registrations.len(), 1);
        assert_eq!(recovered.registrations[0].name, "adult");
        assert_eq!(recovered.registrations[0].csv, fixture.csv);
        assert_eq!(
            recovered.pools,
            vec![
                ("adult".to_owned(), ModelSpec::PSensitiveK { p: 2 }, 3, 10),
                ("adult".to_owned(), ModelSpec::DistinctL { l: 3 }, 2, 0)
            ]
        );
        assert!(recovered.warnings.is_empty(), "{:?}", recovered.warnings);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn stale_dataset_hash_is_skipped_fail_closed() {
        let root = temp_root("stale");
        let state = StateDir::open(&root).unwrap();
        let fixture = adult_fixture(3, 40);
        state
            .log_register("adult", &fixture.csv, &fixture.spec)
            .unwrap();
        state
            .log_pool("adult", ModelSpec::PSensitiveK { p: 2 }, 3, 10)
            .unwrap();
        // Corrupt the stored CSV after the fact.
        let hash = fnv1a64(fixture.csv.as_bytes());
        let path = root.join(format!("datasets/{hash:016x}.csv"));
        std::fs::write(&path, "age\n1\n").unwrap();

        let recovered = StateDir::open(&root).unwrap().replay();
        assert!(recovered.registrations.is_empty());
        assert!(
            recovered.pools.is_empty(),
            "pools of a skipped dataset go too"
        );
        assert!(recovered
            .warnings
            .iter()
            .any(|w| w.contains("hash mismatch")));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn torn_tail_is_ignored_and_interior_corruption_skipped() {
        let root = temp_root("torn");
        let state = StateDir::open(&root).unwrap();
        let fixture = adult_fixture(3, 40);
        state
            .log_register("adult", &fixture.csv, &fixture.spec)
            .unwrap();
        state
            .log_pool("adult", ModelSpec::PSensitiveK { p: 2 }, 3, 10)
            .unwrap();
        drop(state);
        let journal = root.join(JOURNAL_FILE);
        let full = std::fs::read(&journal).unwrap();

        // Truncate mid-final-line: the register survives, the pool is torn.
        std::fs::write(&journal, &full[..full.len() - 5]).unwrap();
        let recovered = StateDir::open(&root).unwrap().replay();
        assert_eq!(recovered.registrations.len(), 1);
        assert!(recovered.pools.is_empty());
        assert!(recovered.warnings.iter().any(|w| w.contains("torn")));

        // Smash the first line's opening brace: it's skipped with a
        // warning, later intact lines still replay (minus orphaned pools).
        let mut corrupt = full.clone();
        corrupt[0] = b'#';
        std::fs::write(&journal, &corrupt).unwrap();
        let recovered = StateDir::open(&root).unwrap().replay();
        assert!(recovered.registrations.is_empty());
        assert!(recovered.warnings.iter().any(|w| w.contains("corrupt")));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn snapshot_roundtrips_and_rejects_any_tampering() {
        let root = temp_root("snap");
        let state = StateDir::open(&root).unwrap();
        let entries = vec![
            SnapshotEntry {
                dataset: "adult".into(),
                deltas: 0,
                model: ModelSpec::PSensitiveK { p: 2 },
                k: 3,
                ts: 10,
                check: NodeCheck {
                    node: Node(vec![0, 1]),
                    violating_tuples: 4,
                    suppressed: 0,
                    satisfied: false,
                    stage: CheckStage::KAnonymity,
                    n_groups: None,
                    detail: None,
                },
            },
            SnapshotEntry {
                dataset: "adult".into(),
                deltas: 0,
                model: ModelSpec::PSensitiveK { p: 2 },
                k: 3,
                ts: 10,
                check: NodeCheck {
                    node: Node(vec![1, 1]),
                    violating_tuples: 0,
                    suppressed: 2,
                    satisfied: true,
                    stage: CheckStage::Passed,
                    n_groups: Some(7),
                    detail: None,
                },
            },
            SnapshotEntry {
                dataset: "adult".into(),
                deltas: 0,
                model: ModelSpec::TCloseness { t_ppm: 250_000 },
                k: 2,
                ts: 0,
                check: NodeCheck {
                    node: Node(vec![1, 0]),
                    violating_tuples: 0,
                    suppressed: 0,
                    satisfied: true,
                    stage: CheckStage::Passed,
                    n_groups: Some(4),
                    detail: Some(ModelDetail::MaxEmdPpm(125_000)),
                },
            },
        ];
        let stats = state.write_snapshot(&entries).unwrap();
        assert_eq!(stats.entries, 3);
        assert_eq!(state.load_snapshot().expect("snapshot loads"), entries);

        // Truncation at every byte boundary: the loader either returns the
        // full snapshot (only at full length) or rejects it whole — never a
        // partial load, never a panic.
        let path = root.join(SNAPSHOT_FILE);
        let full = std::fs::read(&path).unwrap();
        for cut in 0..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            assert!(
                state.load_snapshot().is_none(),
                "truncated snapshot at byte {cut} must be discarded"
            );
        }
        // Byte flips inside the body break the hash.
        for &at in &[1usize, full.len() / 2, full.len() - 2] {
            let mut bent = full.clone();
            bent[at] ^= 0x20;
            std::fs::write(&path, &bent).unwrap();
            assert!(
                state.load_snapshot().is_none(),
                "corrupted snapshot at byte {at} must be discarded"
            );
        }
        std::fs::write(&path, &full).unwrap();
        assert!(state.load_snapshot().is_some());
        let _ = std::fs::remove_dir_all(&root);
    }
}
