//! The cloud master's durable log — the standby-less recovery source under
//! [`crate::HaPolicy::durable_saves`].
//!
//! A [`DurableLog`] holds a *base* image (a [`CrdtSet::save`] payload) and
//! an append-only list of *delta records*. Each [`DurableLog::append`]
//! serializes only what the master gained since the previous append —
//! `get_changes(frontier)` plus the master's current compaction clock — so
//! persisting costs O(delta), like the rest of the sync path. When the
//! records' bytes exceed the base's, the log writes a fresh base from the
//! master and clears the records: each rebase is paid for by at least as
//! many delta bytes, so the amortized cost stays O(delta).
//!
//! Recovery ([`DurableLog::recover`]) loads the base, replays the records
//! in order, then compacts to the last recorded compaction clock. The
//! result has the same snapshot and retained tail — the same
//! [`CrdtSet::save`] bytes — as a full save of the master taken at the
//! last append.
//!
//! Records are deltas of one master incarnation. An append from a
//! different actor (a promoted standby, a recovered master) rebases, since
//! its history is not a continuation of the logged one.
//!
//! Durable work is host-side only: it costs no virtual time and no WAN
//! bytes. Its size shows up in the deterministic telemetry counters
//! `edgstr_ha_durable_bytes_total{kind="base"|"delta"}` and
//! `edgstr_ha_durable_rebases_total`, which never enter run statistics.

use crate::crdtset::{CrdtSet, SetChanges, SetClock};
use edgstr_core::CrdtBindings;
use edgstr_crdt::{ActorId, CrdtError};
use edgstr_telemetry::{Counter, Telemetry};
use serde_json::{Deserialize, Serialize, Value as Json};

/// Base image plus append-only delta records of the cloud master.
#[derive(Debug)]
pub struct DurableLog {
    /// The master incarnation whose deltas the records hold.
    actor: ActorId,
    /// [`CrdtSet::save`] bytes of the master at the last rebase.
    base: Vec<u8>,
    /// Serialized delta records since the base, oldest first.
    records: Vec<Vec<u8>>,
    /// Total bytes across `records`.
    log_bytes: usize,
    /// The master's clock at the last append — the durability frontier.
    frontier: SetClock,
    /// The master's compaction clock as last recorded.
    snapshot: SetClock,
    counters: Option<DurableCounters>,
}

#[derive(Debug)]
struct DurableCounters {
    base_bytes: Counter,
    delta_bytes: Counter,
    rebases: Counter,
}

impl DurableLog {
    /// Start a log whose base is `master`'s current image.
    pub fn new(master: &CrdtSet, telemetry: &Telemetry) -> Self {
        let counters = telemetry.registry().map(|reg| DurableCounters {
            base_bytes: reg.counter("edgstr_ha_durable_bytes_total", &[("kind", "base")]),
            delta_bytes: reg.counter("edgstr_ha_durable_bytes_total", &[("kind", "delta")]),
            rebases: reg.counter("edgstr_ha_durable_rebases_total", &[]),
        });
        let mut log = DurableLog {
            actor: master.actor(),
            base: Vec::new(),
            records: Vec::new(),
            log_bytes: 0,
            frontier: SetClock::default(),
            snapshot: SetClock::default(),
            counters,
        };
        log.write_base(master);
        log
    }

    /// Persist what `master` gained since the last append. Rebases instead
    /// when `master` is a different incarnation, or when the records have
    /// outgrown the base.
    pub fn append(&mut self, master: &CrdtSet) {
        if master.actor() != self.actor {
            self.rebase(master);
            return;
        }
        let snapshot = master.snapshot_clock();
        // compaction never folds past the durability frontier, so the
        // master can still serve everything the log lacks
        debug_assert!(
            self.frontier.dominates(&snapshot),
            "master compacted past the durability frontier"
        );
        let changes = master.get_changes(&self.frontier);
        if changes.is_empty() && snapshot == self.snapshot {
            return;
        }
        let record = encode_record(&changes, &snapshot);
        if let Some(c) = &self.counters {
            c.delta_bytes.add(record.len() as u64);
        }
        self.log_bytes += record.len();
        self.records.push(record);
        self.frontier = master.clock();
        self.snapshot = snapshot;
        if self.log_bytes > self.base.len() {
            self.rebase(master);
        }
    }

    /// The durability frontier: the master's clock at the last append.
    pub fn frontier(&self) -> &SetClock {
        &self.frontier
    }

    /// Rebuild the logged master under `actor`: load the base, replay the
    /// records, compact to the last recorded compaction clock.
    ///
    /// # Errors
    ///
    /// Returns [`CrdtError`] when the base or a record does not decode.
    pub fn recover(&self, actor: ActorId, bindings: &CrdtBindings) -> Result<CrdtSet, CrdtError> {
        let mut set = CrdtSet::load(actor, bindings, &self.base)?;
        let mut snapshot = None;
        for record in &self.records {
            let (changes, snap) = decode_record(record)?;
            set.merge_changes(changes)?;
            snapshot = Some(snap);
        }
        if let Some(snap) = snapshot {
            set.compact(&snap);
        }
        Ok(set)
    }

    /// Bytes of the base image.
    pub fn base_bytes(&self) -> usize {
        self.base.len()
    }

    /// Bytes of the delta records since the base.
    pub fn log_bytes(&self) -> usize {
        self.log_bytes
    }

    fn rebase(&mut self, master: &CrdtSet) {
        if let Some(c) = &self.counters {
            c.rebases.inc();
        }
        self.write_base(master);
    }

    fn write_base(&mut self, master: &CrdtSet) {
        self.actor = master.actor();
        self.base = master.save();
        self.records.clear();
        self.log_bytes = 0;
        self.frontier = master.clock();
        self.snapshot = master.snapshot_clock();
        if let Some(c) = &self.counters {
            c.base_bytes.add(self.base.len() as u64);
        }
    }
}

// ---- record format ----------------------------------------------------------
//
// One JSON object per record:
//   {"tables": {name: [change]}, "files": [change], "globals": [change],
//    "snapshot": {"tables": {name: vclock}, "files": vclock, "globals": vclock}}
// Changes and clocks use the CRDT crate's own JSON encodings.

fn encode_record(changes: &SetChanges, snapshot: &SetClock) -> Vec<u8> {
    let mut root = serde_json::Map::new();
    root.insert("tables".into(), changes.tables.to_json_value());
    root.insert("files".into(), changes.files.to_json_value());
    root.insert("globals".into(), changes.globals.to_json_value());
    let mut snap = serde_json::Map::new();
    snap.insert("tables".into(), snapshot.tables.to_json_value());
    snap.insert("files".into(), snapshot.files.to_json_value());
    snap.insert("globals".into(), snapshot.globals.to_json_value());
    root.insert("snapshot".into(), Json::Object(snap));
    serde_json::to_vec(&Json::Object(root)).expect("durable record is serializable")
}

fn decode_record(bytes: &[u8]) -> Result<(SetChanges, SetClock), CrdtError> {
    let root: Json = serde_json::from_slice(bytes).map_err(|e| corrupt(&e))?;
    let snap = root
        .get("snapshot")
        .ok_or_else(|| corrupt(&"missing snapshot"))?;
    let changes = SetChanges {
        tables: field(&root, "tables")?,
        files: field(&root, "files")?,
        globals: field(&root, "globals")?,
    };
    let snapshot = SetClock {
        tables: field(snap, "tables")?,
        files: field(snap, "files")?,
        globals: field(snap, "globals")?,
    };
    Ok((changes, snapshot))
}

fn field<T: Deserialize>(obj: &Json, name: &str) -> Result<T, CrdtError> {
    let value = obj
        .get(name)
        .ok_or_else(|| corrupt(&format!("missing {name}")))?;
    T::from_json_value(value).map_err(|e| corrupt(&e))
}

fn corrupt(e: &dyn std::fmt::Display) -> CrdtError {
    CrdtError::CorruptChange(format!("durable record: {e}"))
}
