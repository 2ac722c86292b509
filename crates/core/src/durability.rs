//! The durability subsystem: logical redo logging, checkpoint images,
//! and crash recovery (`Database::open(path)` / `Database::create(path)`).
//!
//! ## Architecture
//!
//! A durable database is a directory:
//!
//! ```text
//! mydb.bdbms/
//!   data.bdb        checkpoint image: a FileStore page file
//!   wal/wal-*.log   write-ahead log segments (bdbms_storage::wal)
//! ```
//!
//! **`data.bdb`** holds the last checkpoint: page 0 is a header (magic +
//! CRC + the record id of the metadata blob), each table's rows live in
//! their own heap-file pages (the existing slotted-page/overflow-chain
//! machinery), and one metadata record describes everything else — table
//! schemas, rid maps, annotation sets, outdated bitmaps, deletion logs,
//! index *definitions* (payloads are rebuilt on open), dependency rules,
//! auth and approval state, and the logical clock.
//!
//! **The WAL** holds logical redo records for every transaction committed
//! since that checkpoint.  Records are buffered in memory while a
//! transaction runs — mirroring the undo log's watermark discipline, so a
//! `ROLLBACK` (or a failed statement, or `ROLLBACK TO SAVEPOINT`) simply
//! truncates the buffer — and are appended + flushed at commit, *before*
//! the commit is acknowledged.  Under [`Durability::Full`] the flush
//! fsyncs; under [`Durability::NoSync`] it only reaches the OS.
//!
//! **WAL-before-data**: the buffer pool backing a durable database runs
//! in no-steal mode (`pin_dirty`) — dirty data pages are never written
//! outside a checkpoint — *and* carries the page-LSN flush gate, so even
//! a steal-mode write would flush the log first.  Between checkpoints the
//! on-disk image therefore stays exactly the last checkpoint.
//!
//! **Checkpoint** writes a complete fresh image to `data.bdb.tmp`
//! (shadow-style: new heaps, new metadata, new header), fsyncs, atomically
//! renames over `data.bdb`, swaps the live engine onto the new pages, and
//! truncates the WAL.  A crash at any instant leaves either the old image
//! + old WAL or the new image + empty WAL — both consistent.
//!
//! **Recovery** (`Database::open`) loads the image, rebuilds indexes and
//! statistics from the heaps (a reopen is an implicit `ANALYZE`), then
//! replays the WAL: records are buffered per transaction and applied only
//! when a `Commit` record is reached — ARIES-lite redo with committed
//! records replayed and the uncommitted tail discarded.  Torn frames
//! (bad CRC / short write) at the log's tail are truncated by the WAL
//! layer; damage *behind* durable data surfaces as
//! [`ErrorCode::Corrupt`].  Open always
//! ends with a checkpoint, so the WAL is empty and the image fresh.
//!
//! See `docs/STORAGE.md` for the byte-level formats.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fs::{self, File};
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bdbms_common::codec::{decode_exact, encode_iter, Cur, Encode};
use bdbms_common::{BdbmsError, ErrorCode, Result, Schema, Value};
use bdbms_storage::wal::{GroupCommitter, SharedWal, Wal, WalScan};
use bdbms_storage::{
    crc32, BufferPool, FaultInjector, FaultStore, FileStore, FlushGate, HeapFile, IoDecision,
    MemStore, PageId, PageStore, Rid,
};

pub use bdbms_storage::wal::{CommitTicket, Durability};

use crate::annotation::AnnotationSet;
use crate::approval::{ApprovalManager, LoggedOp};
use crate::ast::{CopyFormat, Privilege, SeqIndexKind};
use crate::auth::AuthManager;
use crate::catalog::{DeletedRow, Table};
use crate::database::Database;
use crate::dependency::DependencyRule;

/// Data file name inside a database directory.
pub(crate) const DATA_FILE: &str = "data.bdb";
/// Temporary checkpoint image (renamed over [`DATA_FILE`] when complete).
const DATA_TMP: &str = "data.bdb.tmp";
/// WAL directory name inside a database directory.
pub(crate) const WAL_DIR: &str = "wal";

const HEADER_MAGIC: &[u8; 8] = b"BDBMSDB1";
// v2: per-table sequence-index definitions appended to the snapshot
const FORMAT_VERSION: u32 = 2;

// ---------------------------------------------------------------------
// Redo buffering
// ---------------------------------------------------------------------

/// The per-connection redo buffer: logical [`WalRecord`]s accumulated by
/// the open transaction.  Shared (via [`RedoSink`]) between the
/// transaction runtime (watermark truncation), every [`Table`] (row and
/// annotation mutations), and the [`Database`] (DDL, auth, approval).
///
/// Disabled for in-memory databases: `push` then never builds the record
/// (the closure is not called), so the legacy paths pay one branch.
pub(crate) struct RedoLog {
    recs: Vec<WalRecord>,
    /// Records are only collected when enabled (durable databases).
    pub(crate) enabled: bool,
    /// Non-zero while rollback applies undo ops: their table-level
    /// mutations must not re-log (the rolled-back records were already
    /// truncated from the buffer).
    suspended: u32,
}

impl RedoLog {
    /// Append a record (built lazily) unless disabled or suspended.
    pub(crate) fn push(&mut self, build: impl FnOnce() -> WalRecord) {
        if self.enabled && self.suspended == 0 {
            self.recs.push(build());
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.recs.len()
    }

    pub(crate) fn truncate(&mut self, len: usize) {
        self.recs.truncate(len);
    }

    pub(crate) fn clear(&mut self) {
        self.recs.clear();
    }

    pub(crate) fn take(&mut self) -> Vec<WalRecord> {
        std::mem::take(&mut self.recs)
    }

    pub(crate) fn suspend(&mut self) {
        self.suspended += 1;
    }

    pub(crate) fn resume(&mut self) {
        debug_assert!(self.suspended > 0);
        self.suspended -= 1;
    }
}

/// Shared handle to a [`RedoLog`].
pub(crate) type RedoSink = Rc<RefCell<RedoLog>>;

/// A fresh, collecting-capable sink (the transaction runtime owns one).
pub(crate) fn fresh_redo_sink() -> RedoSink {
    Rc::new(RefCell::new(RedoLog {
        recs: Vec::new(),
        enabled: false,
        suspended: 0,
    }))
}

/// The default sink a standalone [`Table`] starts with (disabled; the
/// engine swaps in the shared sink for durable databases).
pub(crate) fn disabled_redo_sink() -> RedoSink {
    fresh_redo_sink()
}

// ---------------------------------------------------------------------
// The logical redo vocabulary
// ---------------------------------------------------------------------

/// One logical redo operation.  The WAL for a committed transaction is
/// its surviving operations in execution order, terminated by
/// [`WalRecord::Commit`]; recovery replays them through the same engine
/// methods that produced them, so derived state (index entries, outdated
/// clears inside `delete`, schema coercion) re-derives identically.
#[derive(Debug, Clone)]
pub(crate) enum WalRecord {
    /// A row inserted (schema-coerced values, original row number).
    RowInsert {
        table: String,
        row_no: u64,
        values: Vec<Value>,
    },
    /// A row overwritten in place.
    RowUpdate {
        table: String,
        row_no: u64,
        values: Vec<Value>,
    },
    /// A row deleted.
    RowDelete { table: String, row_no: u64 },
    /// A cell marked outdated (§5 cascade).
    OutdatedMark {
        table: String,
        row_no: u64,
        col: u64,
    },
    /// A cell revalidated.
    OutdatedClear {
        table: String,
        row_no: u64,
        col: u64,
    },
    /// An entry appended to the deletion log (§3.2).
    DeletedLogPush { table: String, row: DeletedRow },
    /// `CREATE TABLE`.
    TableCreate {
        name: String,
        owner: String,
        schema: Schema,
    },
    /// `DROP TABLE`.
    TableDrop { name: String },
    /// `CREATE INDEX` (definition only; payload rebuilds on replay).
    IndexCreate {
        table: String,
        index: String,
        column: String,
    },
    /// `DROP INDEX`.
    IndexDrop { table: String, index: String },
    /// `CREATE ANNOTATION TABLE` (or the provenance set auto-creation).
    AnnSetCreate {
        table: String,
        set: String,
        cell_scheme: bool,
        system_only: bool,
        schema_enforced: bool,
    },
    /// `DROP ANNOTATION TABLE`.
    AnnSetDrop { table: String, set: String },
    /// `ADD ANNOTATION` over `rows × cols` cells.
    AnnAdd {
        table: String,
        set: String,
        raw: String,
        creator: String,
        created: u64,
        rows: Vec<u64>,
        cols: Vec<u64>,
    },
    /// `ARCHIVE`/`RESTORE ANNOTATION` over cells.
    AnnArchive {
        table: String,
        set: String,
        cells: Vec<(u64, u64)>,
        between: Option<(u64, u64)>,
        archived: bool,
    },
    /// `CREATE USER`.
    UserCreate { name: String, groups: Vec<String> },
    /// `GRANT`.
    Grant {
        grantee: String,
        table: String,
        privileges: Vec<Privilege>,
    },
    /// `REVOKE`.
    Revoke {
        grantee: String,
        table: String,
        privileges: Vec<Privilege>,
    },
    /// `START CONTENT APPROVAL`.
    ApprovalStart {
        table: String,
        columns: Option<Vec<String>>,
        approver: String,
    },
    /// `STOP CONTENT APPROVAL`.
    ApprovalStop { table: String, columns: Vec<String> },
    /// An operation appended to the approval log.
    ApprovalLogged { op: LoggedOp },
    /// An approval decision (the inverse's row effects have their own
    /// records; replay only flips the status).
    ApprovalDecide { id: u64, approve: bool },
    /// `CREATE DEPENDENCY RULE` (with its allocated id).
    RuleAdd { rule: DependencyRule },
    /// `DROP DEPENDENCY RULE`.
    RuleDrop { name: String },
    /// Transaction commit barrier; carries the logical clock.
    Commit { clock: u64 },
    /// A `COPY` bulk load: the WAL-bypass record.  Instead of one
    /// `RowInsert` per loaded row, the committed transaction carries
    /// this single logical record; replay re-runs the load from the
    /// source file and cross-checks the row count.  The forced
    /// checkpoint right after the commit keeps the replay window (in
    /// which the source file must still exist unchanged) to the crash
    /// of the loading process itself — see `docs/INGEST.md`.
    BulkLoad {
        table: String,
        path: String,
        format: CopyFormat,
        rows: u64,
    },
    /// `CREATE SEQUENCE INDEX` (definition only; payload rebuilds on
    /// replay, like `IndexCreate`).
    SeqIndexCreate {
        table: String,
        index: String,
        column: String,
        kind: SeqIndexKind,
    },
    /// `DROP SEQUENCE INDEX`.
    SeqIndexDrop { table: String, index: String },
}

// The WAL encoding: a tag byte, then the variant's fields in order.
bdbms_common::codec_enum!(WalRecord, "WAL record", {
    1 => RowInsert { table, row_no, values },
    2 => RowUpdate { table, row_no, values },
    3 => RowDelete { table, row_no },
    4 => OutdatedMark { table, row_no, col },
    5 => OutdatedClear { table, row_no, col },
    6 => DeletedLogPush { table, row },
    7 => TableCreate { name, owner, schema },
    8 => TableDrop { name },
    9 => IndexCreate { table, index, column },
    10 => IndexDrop { table, index },
    11 => AnnSetCreate { table, set, cell_scheme, system_only, schema_enforced },
    12 => AnnSetDrop { table, set },
    13 => AnnAdd { table, set, raw, creator, created, rows, cols },
    14 => AnnArchive { table, set, cells, between, archived },
    15 => UserCreate { name, groups },
    16 => Grant { grantee, table, privileges },
    17 => Revoke { grantee, table, privileges },
    18 => ApprovalStart { table, columns, approver },
    19 => ApprovalStop { table, columns },
    20 => ApprovalLogged { op },
    21 => ApprovalDecide { id, approve },
    22 => RuleAdd { rule },
    23 => RuleDrop { name },
    24 => Commit { clock },
    25 => BulkLoad { table, path, format, rows },
    26 => SeqIndexCreate { table, index, column, kind },
    27 => SeqIndexDrop { table, index },
});

// ---------------------------------------------------------------------
// Options, reports, handles
// ---------------------------------------------------------------------

/// Tuning knobs for a durable database.
#[derive(Debug, Clone)]
pub struct DurabilityOptions {
    /// Fsync policy at commit ([`Durability::Full`] by default).
    pub durability: Durability,
    /// Checkpoint automatically after this many committed transactions.
    pub checkpoint_every_commits: u64,
    /// WAL segment rotation threshold in bytes.
    pub wal_segment_bytes: u64,
    /// Buffer-pool capacity in pages.
    pub pool_pages: usize,
    /// Deterministic fault injection over the write paths (page writes,
    /// fsyncs, WAL flushes, the checkpoint rename).  `None` in
    /// production; the crash-recovery harness arms it.
    pub fault_injector: Option<Arc<FaultInjector>>,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        DurabilityOptions {
            durability: Durability::Full,
            checkpoint_every_commits: 1024,
            wal_segment_bytes: bdbms_storage::wal::DEFAULT_SEGMENT_BYTES,
            pool_pages: 1024,
            fault_injector: None,
        }
    }
}

impl DurabilityOptions {
    /// Default options with [`Durability::NoSync`] (bulk loads, benches).
    pub fn no_sync() -> Self {
        DurabilityOptions {
            durability: Durability::NoSync,
            ..Default::default()
        }
    }
}

/// What `Database::open` replayed and discarded (see
/// [`Database::last_recovery`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Committed transactions replayed from the WAL.
    pub replayed_commits: u64,
    /// Logical operations applied during replay.
    pub replayed_ops: u64,
    /// Operations after the last commit record — an uncommitted tail —
    /// discarded.
    pub discarded_ops: u64,
    /// Physically damaged tail bytes truncated by the WAL scan.
    pub torn_bytes: u64,
    /// Salvage mode only: tables quarantined (dropped from the catalog)
    /// because their heaps could not be fully read.  Empty on a normal
    /// open.
    pub quarantined_tables: Vec<String>,
    /// Salvage mode only: WAL records skipped because they could not be
    /// decoded or applied (e.g. they target a quarantined table).
    pub skipped_wal_records: u64,
    /// Salvage mode only: the checkpoint image was unreadable (bad
    /// header or snapshot) and every table in it was lost; recovery
    /// restarted from an empty state plus whatever the WAL could rebuild.
    pub image_lost: bool,
    /// Salvage mode only: the WAL chain was unreadable and was discarded
    /// rather than replayed.
    pub wal_lost: bool,
}

/// The durable half of a [`Database`]: paths, the WAL, and checkpoint
/// bookkeeping.  `None` on in-memory databases.
pub(crate) struct PersistentStorage {
    dir: PathBuf,
    wal: SharedWal,
    /// The WAL's reserved-LSN frontier, mirrored for page stamping.
    lsn_source: Arc<AtomicU64>,
    opts: DurabilityOptions,
    commits_since_checkpoint: u64,
    last_recovery: Option<RecoveryReport>,
    /// Set by `close` / `simulate_crash`: the drop hook must not
    /// checkpoint.
    skip_shutdown: bool,
    /// Group-commit gate, armed by [`Database::enable_group_commit`].
    /// When present, `wal_commit` appends without flushing and parks a
    /// [`CommitTicket`] in `pending_ticket`; the background flusher
    /// amortizes one fsync over every commit queued behind it.
    group: Option<GroupCommitter>,
    /// The ticket of the most recent deferred commit, picked up by
    /// [`Database::take_commit_ticket`] (the server engine collects it
    /// after each statement and acknowledges the client only once it
    /// resolves).
    pending_ticket: Option<CommitTicket>,
}

// ---------------------------------------------------------------------
// Header page
// ---------------------------------------------------------------------

fn write_header(pg: &mut [u8], meta: Rid) {
    pg[..8].copy_from_slice(HEADER_MAGIC);
    pg[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    pg[12..20].copy_from_slice(&meta.page.0.to_le_bytes());
    pg[20..22].copy_from_slice(&meta.slot.to_le_bytes());
    let crc = crc32(&pg[..22]);
    pg[22..26].copy_from_slice(&crc.to_le_bytes());
}

fn read_header(pg: &[u8]) -> Result<Rid> {
    if &pg[..8] != HEADER_MAGIC {
        return Err(BdbmsError::corrupt(
            "bad magic in database header page (not a bdbms database?)",
        ));
    }
    let crc = u32::from_le_bytes(pg[22..26].try_into().unwrap());
    if crc32(&pg[..22]) != crc {
        return Err(BdbmsError::corrupt(
            "database header page checksum mismatch",
        ));
    }
    let version = u32::from_le_bytes(pg[8..12].try_into().unwrap());
    if version != FORMAT_VERSION {
        return Err(BdbmsError::corrupt(format!(
            "unsupported database format version {version}"
        )));
    }
    Ok(Rid {
        page: PageId(u64::from_le_bytes(pg[12..20].try_into().unwrap())),
        slot: u16::from_le_bytes(pg[20..22].try_into().unwrap()),
    })
}

// ---------------------------------------------------------------------
// Snapshot (checkpoint image metadata)
// ---------------------------------------------------------------------

/// Serialize the whole engine state, with each table's rows already moved
/// into `moved` heaps (page lists + rid maps refer to the *new* store).
fn encode_snapshot(
    db: &Database,
    moved: &[(String, HeapFile, BTreeMap<u64, Rid>)],
    wal_frontier: u64,
) -> Vec<u8> {
    let mut body = Vec::new();
    db.clock.now().encode(&mut body);
    // every WAL entry with an LSN below this is already folded into the
    // image; recovery skips them.  This is what makes the checkpoint's
    // rename → WAL-truncate sequence crash-safe: a crash between the
    // two leaves the new image + the old (pre-checkpoint) log, whose
    // entries are all below the frontier and are ignored, instead of
    // being double-applied.
    wal_frontier.encode(&mut body);
    db.auth.snapshot().encode(&mut body);
    db.approval.snapshot().encode(&mut body);
    (db.deps.rules(), db.deps.next_rule_id()).encode(&mut body);

    (moved.len() as u32).encode(&mut body);
    for ((name, heap, rows), t) in moved.iter().zip(db.catalog.tables()) {
        debug_assert!(t.name.eq_ignore_ascii_case(name));
        (&t.name, &t.owner, &t.schema, t.peek_next_row()).encode(&mut body);
        (heap.pages(), rows).encode(&mut body);
        let indexes = t.indexes().iter();
        encode_iter(&mut body, indexes.map(|i| (&i.name, i.column as u32)));
        let seq_indexes = t.seq_indexes().iter();
        encode_iter(
            &mut body,
            seq_indexes.map(|i| (&i.name, i.column as u32, i.kind)),
        );
        // outdated bitmap, sparse
        (t.outdated.rows(), t.outdated.cols()).encode(&mut body);
        let set_cells: Vec<(usize, usize)> = t.outdated.iter_set().collect();
        (set_cells, &t.deleted_log, &t.ann_sets).encode(&mut body);
    }

    let mut out = Vec::with_capacity(body.len() + 16);
    (FORMAT_VERSION, crc32(&body), body.len() as u64).encode(&mut out);
    out.extend_from_slice(&body);
    out
}

/// Decode a snapshot blob into a fresh `db` whose pool already serves
/// the image's pages (table heaps attach to it), returning the WAL
/// frontier: log entries below it are already part of the image.
///
/// Without a quarantine list every failure is fatal (normal open).
/// With one (salvage mode), a table that fails to *rebuild* is itemized
/// and skipped instead — rebuilding reads the whole heap (statistics,
/// index backfill), so a damaged heap page surfaces here.  The snapshot
/// cursor has fully consumed the table's bytes before the rebuild, so
/// skipping one table cannot desync the next; decode errors of the blob
/// itself stay fatal in both modes (the caller treats that as image
/// loss).
fn decode_snapshot_mode(
    db: &mut Database,
    blob: &[u8],
    pool: &Arc<BufferPool>,
    mut quarantine: Option<&mut Vec<String>>,
) -> Result<u64> {
    let mut head = Cur::new(blob);
    let version: u32 = head.get()?;
    if version != FORMAT_VERSION {
        return Err(BdbmsError::corrupt(format!(
            "unsupported snapshot version {version}"
        )));
    }
    let (crc, len): (u32, u64) = head.get()?;
    let body = head
        .take(len as usize)
        .map_err(|_| BdbmsError::corrupt("snapshot shorter than its declared length"))?;
    if crc32(body) != crc {
        return Err(BdbmsError::corrupt("snapshot checksum mismatch"));
    }
    let mut cur = Cur::new(body);

    db.clock.advance_to(cur.get()?);
    let wal_frontier = cur.get()?;
    db.auth = AuthManager::restore(cur.get()?, cur.get()?);
    db.approval = ApprovalManager::restore(cur.get()?, cur.get()?, cur.get()?);
    db.deps.restore(cur.get()?, cur.get()?);

    let n_tables = cur.count()?;
    for _ in 0..n_tables {
        let (name, owner, schema, next_row): (String, _, _, _) = cur.get()?;
        let (pages, rows) = cur.get()?;
        let index_defs: Vec<(String, usize)> = cur
            .get::<Vec<(String, u32)>>()?
            .into_iter()
            .map(|(name, col)| (name, col as usize))
            .collect();
        let seq_index_defs: Vec<(String, usize, SeqIndexKind)> = cur
            .get::<Vec<(String, u32, SeqIndexKind)>>()?
            .into_iter()
            .map(|(name, col, kind)| (name, col as usize, kind))
            .collect();
        let (bm_rows, bm_cols): (usize, usize) = cur.get()?;
        // the dimensions drive an allocation, so cap them before trusting
        // them: a corrupt blob must not be able to overflow `rows * cols`
        // or reserve gigabytes
        if bm_rows
            .checked_mul(bm_cols)
            .is_none_or(|bits| bits > 1 << 30)
        {
            return Err(BdbmsError::corrupt(format!(
                "implausible outdated bitmap {bm_rows}x{bm_cols}"
            )));
        }
        let mut outdated = bdbms_common::bitmap::CellBitmap::new(bm_rows, bm_cols);
        let (set_cells, deleted_log, ann_sets): (Vec<(usize, usize)>, _, _) = cur.get()?;
        for (r, c) in set_cells {
            if r >= bm_rows || c >= bm_cols {
                return Err(BdbmsError::corrupt("outdated bit outside its bitmap"));
            }
            outdated.set(r, c);
        }
        let heap = HeapFile::attach(pool.clone(), pages);
        let table = Table::from_parts(
            name.clone(),
            schema,
            owner,
            heap,
            rows,
            next_row,
            ann_sets,
            outdated,
            deleted_log,
            &index_defs,
            &seq_index_defs,
        );
        match table {
            Ok(table) => db
                .catalog
                .add_table(table)
                .map_err(|e| BdbmsError::corrupt(e.message().to_string()))?,
            Err(e) => match &mut quarantine {
                Some(q) => q.push(name),
                None => return Err(e),
            },
        }
    }
    if !cur.is_empty() {
        return Err(BdbmsError::corrupt("trailing bytes after snapshot"));
    }
    Ok(wal_frontier)
}

// ---------------------------------------------------------------------
// Database: open / create / checkpoint / recovery
// ---------------------------------------------------------------------

impl Database {
    /// Create a new durable database directory at `path` with default
    /// [`DurabilityOptions`].  Errors with `AlreadyExists` if a database
    /// is already there.
    pub fn create(path: impl AsRef<Path>) -> Result<Database> {
        Self::create_with(path, DurabilityOptions::default())
    }

    /// [`create`](Self::create) with explicit options.
    pub fn create_with(path: impl AsRef<Path>, opts: DurabilityOptions) -> Result<Database> {
        let dir = path.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        if dir.join(DATA_FILE).exists() {
            return Err(BdbmsError::already_exists(format!(
                "database at `{}`",
                dir.display()
            )));
        }
        let (mut wal, _stale) =
            Wal::open_sized(dir.join(WAL_DIR), opts.durability, opts.wal_segment_bytes)?;
        if let Some(inj) = &opts.fault_injector {
            wal.set_fault_injector(inj.clone());
        }
        // a WAL without a data file is debris from an interrupted create
        wal.reset()?;
        let wal = SharedWal::new(wal);
        let lsn_source = Arc::new(AtomicU64::new(wal.with(|w| w.reserved_lsn())));
        let mut db = Database::with_pool(Arc::new(BufferPool::new(
            Box::new(MemStore::new()),
            opts.pool_pages,
        )));
        db.storage = Some(PersistentStorage {
            dir,
            wal,
            lsn_source,
            opts,
            commits_since_checkpoint: 0,
            last_recovery: None,
            skip_shutdown: false,
            group: None,
            pending_ticket: None,
        });
        // the first checkpoint writes the empty image and swaps the pool
        // onto the new FileStore
        db.checkpoint_inner()?;
        db.attach_redo();
        Ok(db)
    }

    /// [`open`](Self::open) the database at `path` if a data file is
    /// already there, otherwise [`create`](Self::create) it — the
    /// server's boot behavior.
    pub fn open_or_create(path: impl AsRef<Path>) -> Result<Database> {
        let dir = path.as_ref();
        if dir.join(DATA_FILE).exists() {
            Self::open(dir)
        } else {
            Self::create(dir)
        }
    }

    /// Open an existing durable database, replaying the WAL: committed
    /// transactions become visible, the uncommitted tail is discarded,
    /// and a fresh checkpoint is written before the database is handed
    /// back (so the WAL is empty and the image current).
    pub fn open(path: impl AsRef<Path>) -> Result<Database> {
        Self::open_with(path, DurabilityOptions::default())
    }

    /// [`open`](Self::open) with explicit options.
    pub fn open_with(path: impl AsRef<Path>, opts: DurabilityOptions) -> Result<Database> {
        let dir = path.as_ref().to_path_buf();
        let data = dir.join(DATA_FILE);
        if !data.exists() {
            return Err(BdbmsError::not_found(format!(
                "no database at `{}`",
                dir.display()
            )));
        }
        let (mut db, wal_frontier) = Self::load_image(&data, &opts, None)?;

        let (mut wal, scan) =
            Wal::open_sized(dir.join(WAL_DIR), opts.durability, opts.wal_segment_bytes)?;
        if let Some(inj) = &opts.fault_injector {
            wal.set_fault_injector(inj.clone());
        }
        let report = db.replay(scan, wal_frontier)?;
        let wal = SharedWal::new(wal);
        let lsn_source = Arc::new(AtomicU64::new(wal.with(|w| w.reserved_lsn())));
        db.storage = Some(PersistentStorage {
            dir,
            wal,
            lsn_source,
            opts,
            commits_since_checkpoint: 0,
            last_recovery: Some(report),
            skip_shutdown: false,
            group: None,
            pending_ticket: None,
        });
        // fold the replayed state into a fresh image; truncates the WAL
        // (dropping the uncommitted tail for good)
        db.checkpoint_inner()?;
        db.attach_redo();
        Ok(db)
    }

    /// Load the checkpoint image: a buffer pool over the data file, the
    /// header page, and the snapshot blob decoded into a fresh engine.
    /// Returns the table-level state and the WAL frontier.  With a
    /// quarantine list (salvage mode), tables that fail to rebuild are
    /// itemized there instead of failing the load.
    fn load_image(
        data: &Path,
        opts: &DurabilityOptions,
        quarantine: Option<&mut Vec<String>>,
    ) -> Result<(Database, u64)> {
        let store: Box<dyn PageStore> = match &opts.fault_injector {
            Some(inj) => Box::new(FaultStore::new(
                Box::new(FileStore::open(data)?),
                inj.clone(),
            )),
            None => Box::new(FileStore::open(data)?),
        };
        let pool = Arc::new(BufferPool::new(store, opts.pool_pages));
        // no page of the image may be overwritten while we recover on it
        pool.set_pin_dirty(true);
        if pool.num_pages() == 0 {
            return Err(BdbmsError::corrupt(format!(
                "database file `{}` is empty",
                data.display()
            )));
        }
        let meta_rid = pool.with_page(PageId(0), read_header)??;
        let meta_heap = HeapFile::attach(pool.clone(), Vec::new());
        let blob = meta_heap
            .get(meta_rid)
            .map_err(|e| BdbmsError::corrupt(format!("unreadable snapshot record: {e}")))?;
        let mut db = Database::with_pool(pool.clone());
        let wal_frontier = decode_snapshot_mode(&mut db, &blob, &pool, quarantine)?;
        Ok((db, wal_frontier))
    }

    /// Open a damaged database, salvaging what can still be read instead
    /// of refusing.  Where [`open`](Self::open) fails on the first
    /// corruption, salvage degrades gracefully:
    ///
    /// * a table whose heap cannot be fully read is **quarantined** —
    ///   dropped from the catalog and itemized in the returned
    ///   [`RecoveryReport::quarantined_tables`] — while every untouched
    ///   table opens normally;
    /// * an unreadable checkpoint image (bad header, snapshot checksum)
    ///   loses all tables ([`RecoveryReport::image_lost`]) but recovery
    ///   still proceeds from empty state plus the WAL;
    /// * WAL records that cannot be decoded or applied are skipped and
    ///   counted, not fatal; an unreadable WAL chain is discarded
    ///   ([`RecoveryReport::wal_lost`]).
    ///
    /// On return the surviving state has been re-checkpointed, so the
    /// on-disk image is clean again.  A committed transaction touching a
    /// quarantined table may be partially applied to the survivors —
    /// salvage trades atomicity for availability, which is why it is a
    /// separate entry point and never the default.
    pub fn open_salvage(path: impl AsRef<Path>) -> Result<Database> {
        Self::open_salvage_with(path, DurabilityOptions::default())
    }

    /// [`open_salvage`](Self::open_salvage) with explicit options.
    pub fn open_salvage_with(path: impl AsRef<Path>, opts: DurabilityOptions) -> Result<Database> {
        let dir = path.as_ref().to_path_buf();
        let data = dir.join(DATA_FILE);
        if !data.exists() {
            return Err(BdbmsError::not_found(format!(
                "no database at `{}`",
                dir.display()
            )));
        }
        let mut report = RecoveryReport::default();

        let (mut db, wal_frontier) =
            match Self::load_image(&data, &opts, Some(&mut report.quarantined_tables)) {
                Ok(v) => v,
                Err(_) => {
                    report.image_lost = true;
                    report.quarantined_tables.clear();
                    let db = Database::with_pool(Arc::new(BufferPool::new(
                        Box::new(MemStore::new()),
                        opts.pool_pages,
                    )));
                    // frontier 0: let the WAL rebuild everything it can
                    (db, 0)
                }
            };

        // Quarantine any table whose rows cannot all be read back (a
        // damaged heap page surfaces here as a checksum/decode error).
        let damaged: Vec<String> = db
            .catalog
            .tables()
            .filter(|t| t.iter_rows().any(|r| r.is_err()))
            .map(|t| t.name.clone())
            .collect();
        for name in damaged {
            let _ = db.catalog.drop_table(&name);
            report.quarantined_tables.push(name);
        }

        let wal_dir = dir.join(WAL_DIR);
        let (mut wal, scan) =
            match Wal::open_sized(&wal_dir, opts.durability, opts.wal_segment_bytes) {
                Ok(v) => v,
                Err(_) => {
                    // the chain is unreadable mid-stream: discard it and
                    // start a fresh log (the image state still stands)
                    report.wal_lost = true;
                    fs::remove_dir_all(&wal_dir)?;
                    Wal::open_sized(&wal_dir, opts.durability, opts.wal_segment_bytes)?
                }
            };
        if let Some(inj) = &opts.fault_injector {
            wal.set_fault_injector(inj.clone());
        }
        report.torn_bytes = scan.torn_bytes;
        db.replay_salvage(scan, wal_frontier, &mut report);

        let wal = SharedWal::new(wal);
        let lsn_source = Arc::new(AtomicU64::new(wal.with(|w| w.reserved_lsn())));
        db.storage = Some(PersistentStorage {
            dir,
            wal,
            lsn_source,
            opts,
            commits_since_checkpoint: 0,
            last_recovery: Some(report),
            skip_shutdown: false,
            group: None,
            pending_ticket: None,
        });
        // re-checkpoint the survivors: the on-disk image is clean again
        db.checkpoint_inner()?;
        db.attach_redo();
        Ok(db)
    }

    /// [`replay`](Self::replay) in salvage mode: undecodable or
    /// unappliable records are counted and skipped instead of aborting
    /// the open.
    fn replay_salvage(&mut self, scan: WalScan, frontier: u64, report: &mut RecoveryReport) {
        let mut pending: Vec<WalRecord> = Vec::new();
        for entry in scan.entries {
            if entry.lsn < frontier {
                continue;
            }
            match decode_exact::<WalRecord>(&entry.payload) {
                Ok(WalRecord::Commit { clock }) => {
                    for r in pending.drain(..) {
                        match self.apply_wal_record(r) {
                            Ok(()) => report.replayed_ops += 1,
                            Err(_) => report.skipped_wal_records += 1,
                        }
                    }
                    self.clock.advance_to(clock);
                    report.replayed_commits += 1;
                }
                Ok(rec) => pending.push(rec),
                Err(_) => report.skipped_wal_records += 1,
            }
        }
        report.discarded_ops = pending.len() as u64;
    }

    /// Replay scanned WAL entries: buffer records, apply on each commit.
    /// Entries below `frontier` are already folded into the checkpoint
    /// image (a crash hit the window between the image rename and the
    /// WAL truncation) and are skipped, not double-applied.
    fn replay(&mut self, scan: WalScan, frontier: u64) -> Result<RecoveryReport> {
        let mut report = RecoveryReport {
            torn_bytes: scan.torn_bytes,
            ..Default::default()
        };
        let mut pending: Vec<WalRecord> = Vec::new();
        for entry in scan.entries {
            if entry.lsn < frontier {
                continue;
            }
            let rec = decode_exact::<WalRecord>(&entry.payload)?;
            if let WalRecord::Commit { clock } = rec {
                for r in pending.drain(..) {
                    self.apply_wal_record(r).map_err(|e| {
                        BdbmsError::corrupt(format!(
                            "WAL replay diverged from the checkpoint image: {e}"
                        ))
                    })?;
                    report.replayed_ops += 1;
                }
                self.clock.advance_to(clock);
                report.replayed_commits += 1;
            } else {
                pending.push(rec);
            }
        }
        report.discarded_ops = pending.len() as u64;
        Ok(report)
    }

    /// Apply one committed redo record against the live state, through
    /// the same engine methods that produced it.
    fn apply_wal_record(&mut self, rec: WalRecord) -> Result<()> {
        match rec {
            WalRecord::RowInsert {
                table,
                row_no,
                values,
            } => {
                self.catalog
                    .table_mut(&table)?
                    .insert_with_row_no(row_no, values)?;
            }
            WalRecord::RowUpdate {
                table,
                row_no,
                values,
            } => {
                self.catalog.table_mut(&table)?.update(row_no, values)?;
            }
            WalRecord::RowDelete { table, row_no } => {
                self.catalog.table_mut(&table)?.delete(row_no)?;
            }
            WalRecord::OutdatedMark { table, row_no, col } => {
                self.catalog
                    .table_mut(&table)?
                    .mark_outdated(row_no, col as usize);
            }
            WalRecord::OutdatedClear { table, row_no, col } => {
                self.catalog
                    .table_mut(&table)?
                    .clear_outdated(row_no, col as usize);
            }
            WalRecord::DeletedLogPush { table, row } => {
                self.catalog.table_mut(&table)?.push_deleted(row);
            }
            WalRecord::TableCreate {
                name,
                owner,
                schema,
            } => {
                let table = Table::create(name, schema, owner, self.pool.clone())?;
                self.catalog.add_table(table)?;
            }
            WalRecord::TableDrop { name } => {
                self.catalog.drop_table(&name)?;
            }
            WalRecord::IndexCreate {
                table,
                index,
                column,
            } => {
                self.catalog
                    .table_mut(&table)?
                    .create_index(&index, &column)?;
            }
            WalRecord::IndexDrop { table, index } => {
                self.catalog.table_mut(&table)?.drop_index(&index)?;
            }
            WalRecord::AnnSetCreate {
                table,
                set,
                cell_scheme,
                system_only,
                schema_enforced,
            } => {
                let mut s = AnnotationSet::new(set, cell_scheme);
                s.system_only = system_only;
                s.schema_enforced = schema_enforced;
                self.catalog.table_mut(&table)?.add_ann_set(s);
            }
            WalRecord::AnnSetDrop { table, set } => {
                let t = self.catalog.table_mut(&table)?;
                let pos = t
                    .ann_sets
                    .iter()
                    .position(|s| s.name.eq_ignore_ascii_case(&set))
                    .ok_or_else(|| {
                        BdbmsError::not_found(format!("annotation table `{set}` on `{table}`"))
                    })?;
                t.remove_ann_set_at(pos);
            }
            WalRecord::AnnAdd {
                table,
                set,
                raw,
                creator,
                created,
                rows,
                cols,
            } => {
                let cols: Vec<usize> = cols.into_iter().map(|c| c as usize).collect();
                self.catalog
                    .table_mut(&table)?
                    .ann_add(&set, &raw, &creator, created, &rows, &cols)
                    .ok_or_else(|| {
                        BdbmsError::not_found(format!("annotation table `{set}` on `{table}`"))
                    })?;
            }
            WalRecord::AnnArchive {
                table,
                set,
                cells,
                between,
                archived,
            } => {
                let cells: Vec<(u64, usize)> =
                    cells.into_iter().map(|(r, c)| (r, c as usize)).collect();
                self.catalog
                    .table_mut(&table)?
                    .ann_set_archived(&set, &cells, between, archived)
                    .ok_or_else(|| {
                        BdbmsError::not_found(format!("annotation table `{set}` on `{table}`"))
                    })?;
            }
            WalRecord::UserCreate { name, groups } => {
                self.auth.create_user(&name, &groups)?;
            }
            WalRecord::Grant {
                grantee,
                table,
                privileges,
            } => {
                self.auth.grant(&grantee, &table, &privileges);
            }
            WalRecord::Revoke {
                grantee,
                table,
                privileges,
            } => {
                self.auth.revoke(&grantee, &table, &privileges);
            }
            WalRecord::ApprovalStart {
                table,
                columns,
                approver,
            } => {
                self.approval.start(&table, columns, &approver);
            }
            WalRecord::ApprovalStop { table, columns } => {
                self.approval.stop(&table, &columns);
            }
            WalRecord::ApprovalLogged { op } => {
                self.approval.restore_log_entry(op);
            }
            WalRecord::ApprovalDecide { id, approve } => {
                self.approval
                    .decide(bdbms_common::ids::OperationId(id), approve)?;
            }
            WalRecord::RuleAdd { rule } => {
                self.deps.replay_rule(rule);
            }
            WalRecord::RuleDrop { name } => {
                self.deps.drop_rule(&name)?;
            }
            WalRecord::Commit { clock } => {
                self.clock.advance_to(clock);
            }
            WalRecord::BulkLoad {
                table,
                path,
                format,
                rows,
            } => {
                let t = self.catalog.table_mut(&table)?;
                let loaded = crate::ingest::bulk_load(t, Path::new(&path), format)?;
                if loaded != rows {
                    return Err(BdbmsError::corrupt(format!(
                        "bulk-load replay of `{path}` into `{table}` yielded {loaded} \
                         rows, the committed load had {rows} (source file changed?)"
                    )));
                }
            }
            WalRecord::SeqIndexCreate {
                table,
                index,
                column,
                kind,
            } => {
                self.catalog
                    .table_mut(&table)?
                    .create_seq_index(&index, &column, kind)?;
            }
            WalRecord::SeqIndexDrop { table, index } => {
                self.catalog.table_mut(&table)?.drop_seq_index(&index)?;
            }
        }
        Ok(())
    }

    /// Enable redo collection and share the sink with every table.
    fn attach_redo(&mut self) {
        let sink = self.txn.redo_sink();
        sink.borrow_mut().enabled = true;
        for t in self.catalog.tables_mut() {
            t.set_redo(sink.clone());
        }
        self.register_wal_metrics();
    }

    /// Publish the WAL's instruments (owned by [`Wal`], which lives in
    /// the storage crate and knows nothing of the registry) under their
    /// engine-wide names.  Every durable open/create path funnels through
    /// [`attach_redo`](Self::attach_redo), so this runs exactly once per
    /// attached WAL.
    fn register_wal_metrics(&self) {
        let Some(ps) = &self.storage else { return };
        let wm = ps.wal.with(|w| w.metrics());
        self.metrics.register_counter("wal.appends", wm.appends);
        self.metrics.register_counter("wal.fsyncs", wm.fsyncs);
        self.metrics
            .register_histogram("wal.fsync_latency_ns", wm.fsync_latency_ns);
    }

    /// Is this database backed by files (vs. purely in-memory)?
    pub fn is_persistent(&self) -> bool {
        self.storage.is_some()
    }

    /// The database directory, if persistent.
    pub fn path(&self) -> Option<&Path> {
        self.storage.as_ref().map(|s| s.dir.as_path())
    }

    /// What the last `open` replayed/discarded (`None` for in-memory
    /// databases and fresh `create`s).
    pub fn last_recovery(&self) -> Option<&RecoveryReport> {
        self.storage.as_ref().and_then(|s| s.last_recovery.as_ref())
    }

    /// Live WAL segment files (observability: checkpoints truncate them).
    pub fn wal_segment_count(&self) -> Option<usize> {
        self.storage
            .as_ref()
            .map(|s| s.wal.with(|w| w.segment_count()))
            .transpose()
            .ok()
            .flatten()
    }

    /// Write a checkpoint: a complete fresh image of the database,
    /// atomically renamed over the old one, after which the WAL is
    /// truncated.  No-op for in-memory databases; `TxnState` error inside
    /// an open transaction (the image must be transaction-consistent).
    pub fn checkpoint(&mut self) -> Result<()> {
        if self.storage.is_none() {
            return Ok(());
        }
        if self.in_transaction() {
            return Err(BdbmsError::txn_state(
                "CHECKPOINT cannot run inside an open transaction",
            ));
        }
        self.checkpoint_inner()
    }

    /// The checkpoint body (callers have verified preconditions).
    pub(crate) fn checkpoint_inner(&mut self) -> Result<()> {
        let cp_started = std::time::Instant::now();
        let (dir, pool_pages, wal, lsn_source, fault) = {
            let ps = self.storage.as_ref().expect("checkpoint of durable db");
            (
                ps.dir.clone(),
                ps.opts.pool_pages,
                ps.wal.clone(),
                ps.lsn_source.clone(),
                ps.opts.fault_injector.clone(),
            )
        };
        // make committed WAL records durable before the image rewrite:
        // if the rename below never happens, recovery needs them
        let wal_frontier = wal.with(|w| -> Result<u64> {
            w.flush()?;
            Ok(w.reserved_lsn())
        })?;
        let tmp = dir.join(DATA_TMP);
        let _ = fs::remove_file(&tmp);
        let tmp_store: Box<dyn PageStore> = match &fault {
            Some(inj) => Box::new(FaultStore::new(
                Box::new(FileStore::create(&tmp)?),
                inj.clone(),
            )),
            None => Box::new(FileStore::create(&tmp)?),
        };
        let new_pool = Arc::new(BufferPool::new(tmp_store, pool_pages));
        let header = new_pool.allocate()?;
        debug_assert_eq!(header, PageId(0));
        let mut moved: Vec<(String, HeapFile, BTreeMap<u64, Rid>)> = Vec::new();
        for t in self.catalog.tables() {
            let (heap, rows) = t.write_rows_to(new_pool.clone())?;
            moved.push((t.name.clone(), heap, rows));
        }
        let blob = encode_snapshot(self, &moved, wal_frontier);
        let mut meta_heap = HeapFile::create(new_pool.clone())?;
        let meta_rid = meta_heap.insert(&blob)?;
        new_pool.with_page_mut(PageId(0), |pg| write_header(pg, meta_rid))?;
        new_pool.flush_all()?;
        new_pool.sync_store()?;
        if let Some(inj) = &fault {
            // a rename either happens or doesn't — data-shaped faults
            // degrade to an error, leaving the old image in place
            if inj.next_op() != IoDecision::Proceed {
                return Err(FaultInjector::injected_error("checkpoint image rename"));
            }
        }
        fs::rename(&tmp, dir.join(DATA_FILE))?;
        if let Ok(d) = File::open(&dir) {
            let _ = d.sync_all();
        }
        // adopt the new image as the live storage
        for (name, heap, rows) in moved {
            self.catalog.table_mut(&name)?.swap_storage(heap, rows);
        }
        new_pool.set_pin_dirty(true);
        new_pool.set_flush_gate(Arc::new(wal.clone()) as Arc<dyn FlushGate>);
        new_pool.set_lsn_source(lsn_source);
        self.pool = new_pool;
        // Truncating the log is pure space reclamation at this point:
        // the image's WAL frontier makes recovery skip the old entries
        // whether or not the files disappear, so a failure here must not
        // fail the (already effective) checkpoint.
        let _ = wal.with(|w| w.reset());
        let ps = self.storage.as_mut().expect("still durable");
        ps.commits_since_checkpoint = 0;
        self.engine_metrics.checkpoints.inc();
        self.engine_metrics
            .checkpoint_duration_ns
            .record(cp_started.elapsed().as_nanos() as u64);
        if let Ok(md) = fs::metadata(dir.join(DATA_FILE)) {
            self.engine_metrics.checkpoint_bytes.add(md.len());
        }
        Ok(())
    }

    /// Checkpoint if the auto-checkpoint interval has elapsed.
    /// Best-effort: the triggering commit is already durable in the WAL,
    /// so a checkpoint failure (say, no space for the image rewrite)
    /// must not turn a successful commit into an error — the counter
    /// stays past the threshold and the next commit retries.
    pub(crate) fn maybe_checkpoint(&mut self) {
        let due = match &self.storage {
            Some(ps) => ps.commits_since_checkpoint >= ps.opts.checkpoint_every_commits,
            None => false,
        };
        if due {
            let _ = self.checkpoint_inner();
        }
    }

    /// Append the open transaction's redo records + a commit record to
    /// the WAL and flush per the durability policy.  Called *before* the
    /// in-memory commit; an error here means the transaction must roll
    /// back (the partial WAL tail has no commit record and is discarded
    /// by the next recovery).
    ///
    /// With [group commit](Database::enable_group_commit) armed, the
    /// flush is *deferred*: the records are appended and the commit LSN
    /// queued at the group-commit gate, and the resulting
    /// [`CommitTicket`] is parked for [`Database::take_commit_ticket`].
    /// `Ok` then means "appended, durability pending" — the caller must
    /// not acknowledge the commit to a client until the ticket resolves.
    pub(crate) fn wal_commit(&mut self) -> Result<()> {
        if self.storage.is_none() {
            return Ok(());
        }
        let recs = self.txn.redo_take();
        if recs.is_empty() {
            return Ok(()); // read-only transaction: no WAL traffic
        }
        let clock = self.clock.now();
        let ps = self.storage.as_mut().expect("checked above");
        let group = &ps.group;
        let ticket = ps.wal.with(|w| -> Result<Option<CommitTicket>> {
            // on any failure the half-written commit is rewound out of
            // the log: left in place, a *later* successful commit would
            // make these frames replayable and resurrect a transaction
            // the caller is about to roll back.  (If the rewind itself
            // fails the WAL latches damaged and refuses further writes
            // until reopen.)
            let pos = w.position();
            let append_all = |w: &mut bdbms_storage::Wal| -> Result<()> {
                let mut buf = Vec::new();
                for r in &recs {
                    buf.clear();
                    r.encode(&mut buf);
                    w.append(&buf)?;
                }
                buf.clear();
                WalRecord::Commit { clock }.encode(&mut buf);
                w.append(&buf)?;
                // grouped commits leave the flush to the gate's flusher
                // thread — one fsync covers every commit queued there
                if group.is_some() {
                    Ok(())
                } else {
                    w.flush()
                }
            };
            // Bounded deterministic retry: a *transient* I/O failure
            // (ErrorCode::Io — a flaky fsync, not logical damage) is
            // retried up to twice more after rewinding the half-written
            // frames.  Anything else, a failed rewind, or exhaustion
            // escalates to the caller's rollback.
            let mut last_err = None;
            for _ in 0..3 {
                match append_all(w) {
                    Ok(()) => {
                        last_err = None;
                        break;
                    }
                    Err(e) => {
                        let rewound = w.rewind(pos).is_ok();
                        let transient = e.code() == ErrorCode::Io;
                        last_err = Some(e);
                        if !rewound || !transient {
                            break;
                        }
                    }
                }
            }
            if let Some(e) = last_err {
                return Err(e);
            }
            ps.lsn_source.store(w.reserved_lsn(), Ordering::Release);
            // the commit record is the last frame appended
            Ok(group.as_ref().map(|g| g.submit(w.reserved_lsn() - 1)))
        })?;
        ps.pending_ticket = ticket;
        ps.commits_since_checkpoint += 1;
        Ok(())
    }

    /// Arm group commit: commits append their WAL frames and queue at
    /// the flush gate instead of fsyncing inline, and a background
    /// flusher resolves every queued commit with one fsync.  Returns
    /// `false` (and does nothing) for in-memory databases.
    ///
    /// After every successful commit the caller **must** collect the
    /// pending [`CommitTicket`] via [`Database::take_commit_ticket`]
    /// and wait on it before
    /// acknowledging the commit externally — this is how the server
    /// keeps the durability contract while amortizing the barrier.
    /// In-process callers that don't collect tickets still get correct
    /// recovery semantics (unflushed commits are simply not yet
    /// durable), which is why this is opt-in rather than default.
    pub fn enable_group_commit(&mut self) -> bool {
        match self.storage.as_mut() {
            Some(ps) => {
                if ps.group.is_none() {
                    let group = GroupCommitter::new(ps.wal.clone());
                    let gm = group.metrics();
                    self.metrics
                        .register_histogram("group.sizes", gm.group_sizes);
                    self.metrics
                        .register_gauge("group.fsync_ema_ns", gm.fsync_ema_ns);
                    ps.group = Some(group);
                }
                true
            }
            None => false,
        }
    }

    /// Is the group-commit gate armed?
    pub fn group_commit_enabled(&self) -> bool {
        self.storage.as_ref().is_some_and(|ps| ps.group.is_some())
    }

    /// Take the ticket of the most recent deferred commit, if any.
    /// Present only after a commit that ran with group commit armed and
    /// actually wrote WAL records (read-only commits and in-memory
    /// databases never produce one).
    pub fn take_commit_ticket(&mut self) -> Option<CommitTicket> {
        self.storage
            .as_mut()
            .and_then(|ps| ps.pending_ticket.take())
    }

    /// Total fsyncs issued against the WAL so far (`None` in-memory).
    /// The e14 experiment divides this by acknowledged commits to
    /// measure group commit's amortization.
    pub fn wal_fsync_count(&self) -> Option<u64> {
        self.storage
            .as_ref()
            .map(|ps| ps.wal.with(|w| w.sync_count()))
    }

    /// Shared handle to the WAL's fsync counter (`None` in-memory).
    /// Lets the server observe fsync totals from other threads while
    /// the database stays pinned to its engine thread.
    pub fn wal_sync_counter(&self) -> Option<Arc<AtomicU64>> {
        self.storage
            .as_ref()
            .map(|ps| ps.wal.with(|w| w.sync_counter()))
    }

    /// Checkpoint and shut down cleanly.  (Dropping a durable database
    /// also checkpoints, best-effort; `close` surfaces the error.)
    pub fn close(mut self) -> Result<()> {
        if self.in_transaction() {
            let _ = self.txn_rollback();
        }
        let r = self.checkpoint();
        if let Some(ps) = self.storage.as_mut() {
            ps.skip_shutdown = true;
        }
        r
    }

    /// Drop the database *without* the shutdown checkpoint — exactly what
    /// a `kill -9` leaves behind: the last checkpoint image plus the WAL
    /// as flushed by committed transactions.  The crash-recovery suite is
    /// built on this.
    pub fn simulate_crash(mut self) {
        if let Some(ps) = self.storage.as_mut() {
            ps.skip_shutdown = true;
        }
    }
}

impl Drop for Database {
    fn drop(&mut self) {
        let Some(ps) = &self.storage else { return };
        if ps.skip_shutdown {
            return;
        }
        if self.in_transaction() {
            let _ = self.txn_rollback();
        }
        let _ = self.checkpoint_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approval::{InverseOp, OpStatus};
    use bdbms_common::codec::assert_codec_laws;
    use bdbms_common::DataType;

    /// One record of every variant — shared by the roundtrip test and
    /// the mutation fuzz below.
    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::RowInsert {
                table: "Gene".into(),
                row_no: 3,
                values: vec![Value::Text("JW0080".into()), Value::Int(11), Value::Null],
            },
            WalRecord::RowUpdate {
                table: "Gene".into(),
                row_no: 3,
                values: vec![Value::Float(2.5)],
            },
            WalRecord::RowDelete {
                table: "Gene".into(),
                row_no: 9,
            },
            WalRecord::OutdatedMark {
                table: "Gene".into(),
                row_no: 1,
                col: 2,
            },
            WalRecord::OutdatedClear {
                table: "Gene".into(),
                row_no: 1,
                col: 2,
            },
            WalRecord::DeletedLogPush {
                table: "Gene".into(),
                row: DeletedRow {
                    row_no: 4,
                    values: vec![Value::Bool(true)],
                    annotation: Some("why".into()),
                    time: 8,
                    user: "alice".into(),
                },
            },
            WalRecord::TableCreate {
                name: "Gene".into(),
                owner: "admin".into(),
                schema: Schema::of(&[("GID", DataType::Text), ("Len", DataType::Int)]),
            },
            WalRecord::TableDrop {
                name: "Gene".into(),
            },
            WalRecord::IndexCreate {
                table: "Gene".into(),
                index: "len_idx".into(),
                column: "Len".into(),
            },
            WalRecord::IndexDrop {
                table: "Gene".into(),
                index: "len_idx".into(),
            },
            WalRecord::AnnSetCreate {
                table: "Gene".into(),
                set: "Curation".into(),
                cell_scheme: false,
                system_only: true,
                schema_enforced: true,
            },
            WalRecord::AnnSetDrop {
                table: "Gene".into(),
                set: "Curation".into(),
            },
            WalRecord::AnnAdd {
                table: "Gene".into(),
                set: "Curation".into(),
                raw: "<Annotation>x</Annotation>".into(),
                creator: "bob".into(),
                created: 12,
                rows: vec![0, 1, 5],
                cols: vec![2],
            },
            WalRecord::AnnArchive {
                table: "Gene".into(),
                set: "Curation".into(),
                cells: vec![(0, 2), (1, 2)],
                between: Some((3, 9)),
                archived: true,
            },
            WalRecord::UserCreate {
                name: "alice".into(),
                groups: vec!["lab1".into()],
            },
            WalRecord::Grant {
                grantee: "alice".into(),
                table: "Gene".into(),
                privileges: vec![Privilege::Select, Privilege::Provenance],
            },
            WalRecord::Revoke {
                grantee: "alice".into(),
                table: "Gene".into(),
                privileges: vec![Privilege::Update],
            },
            WalRecord::ApprovalStart {
                table: "Gene".into(),
                columns: Some(vec!["gsequence".into()]),
                approver: "labadmin".into(),
            },
            WalRecord::ApprovalStop {
                table: "Gene".into(),
                columns: vec![],
            },
            WalRecord::ApprovalLogged {
                op: LoggedOp {
                    id: bdbms_common::ids::OperationId(5),
                    table: "Gene".into(),
                    user: "alice".into(),
                    time: 44,
                    description: "UPDATE Gene".into(),
                    inverse: InverseOp::RestoreCells {
                        row_no: 2,
                        old: vec![(1, Value::Int(7))],
                    },
                    status: OpStatus::Pending,
                },
            },
            WalRecord::ApprovalDecide {
                id: 5,
                approve: false,
            },
            WalRecord::RuleAdd {
                rule: DependencyRule {
                    id: bdbms_common::ids::RuleId(2),
                    name: "r1".into(),
                    src_table: "Gene".into(),
                    src_cols: vec!["GSequence".into()],
                    dst_table: "Protein".into(),
                    dst_col: "PSequence".into(),
                    procedure: "translate".into(),
                    executable: true,
                    invertible: false,
                    link: Some(("GID".into(), "GID".into())),
                },
            },
            WalRecord::RuleDrop { name: "r1".into() },
            WalRecord::Commit { clock: 99 },
            WalRecord::BulkLoad {
                table: "Gene".into(),
                path: "/tmp/genes.fasta".into(),
                format: CopyFormat::Fasta,
                rows: 50_000,
            },
            WalRecord::SeqIndexCreate {
                table: "Gene".into(),
                index: "seq_idx".into(),
                column: "GSequence".into(),
                kind: SeqIndexKind::Sbc,
            },
            WalRecord::SeqIndexDrop {
                table: "Gene".into(),
                index: "seq_idx".into(),
            },
        ]
    }

    #[test]
    fn wal_record_roundtrip_every_variant() {
        for rec in sample_records() {
            let mut buf = Vec::new();
            rec.encode(&mut buf);
            let back = decode_exact::<WalRecord>(&buf).unwrap();
            // LoggedOp/DeletedRow/DependencyRule don't implement
            // PartialEq wholesale; compare re-encodings instead
            let mut buf2 = Vec::new();
            back.encode(&mut buf2);
            assert_eq!(buf, buf2, "roundtrip drift for {rec:?}");
        }
    }

    #[test]
    fn wal_record_decode_rejects_garbage() {
        assert!(decode_exact::<WalRecord>(&[]).is_err());
        assert!(decode_exact::<WalRecord>(&[200]).is_err());
        let mut buf = Vec::new();
        WalRecord::Commit { clock: 7 }.encode(&mut buf);
        let whole = buf.clone();
        buf.truncate(buf.len() - 2);
        assert!(decode_exact::<WalRecord>(&buf).is_err());
        // one record per WAL entry: a byte after it is damage too
        let mut longer = whole;
        longer.push(0);
        assert!(decode_exact::<WalRecord>(&longer).is_err());
    }

    /// Presence bytes follow one rule everywhere: 0 or 1, else Corrupt.
    /// A damaged byte must not be read as `Some`.
    #[test]
    fn presence_bytes_other_than_zero_or_one_are_corrupt() {
        // each case: a record with the option present, then without it
        let mut pairs = Vec::new();
        for rec in sample_records() {
            let mut without = rec.clone();
            match &mut without {
                WalRecord::DeletedLogPush { row, .. } => row.annotation = None,
                WalRecord::AnnArchive { between, .. } => *between = None,
                WalRecord::ApprovalStart { columns, .. } => *columns = None,
                WalRecord::RuleAdd { rule } => rule.link = None,
                _ => continue,
            }
            pairs.push((rec, without));
        }
        assert_eq!(pairs.len(), 4);
        for (with, without) in pairs {
            let (mut a, mut b) = (Vec::new(), Vec::new());
            with.encode(&mut a);
            without.encode(&mut b);
            let at = a.iter().zip(&b).position(|(x, y)| x != y).unwrap();
            assert_eq!((a[at], b[at]), (1, 0), "presence byte of {with:?}");
            a[at] = 2;
            let err = decode_exact::<WalRecord>(&a).unwrap_err();
            assert_eq!(err.code(), ErrorCode::Corrupt, "{with:?}");
        }
    }

    use proptest::prelude::*;

    /// A genuine snapshot body (the bytes under the version/CRC frame),
    /// captured once from a real checkpoint so the mutation fuzz
    /// exercises the deep decoders, not just the framing.
    fn real_snapshot_body() -> &'static [u8] {
        use std::sync::OnceLock;
        static BODY: OnceLock<Vec<u8>> = OnceLock::new();
        BODY.get_or_init(|| {
            let dir =
                std::env::temp_dir().join(format!("bdbms-snapfuzz-{}.bdbms", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            let mut db = Database::create(&dir).unwrap();
            db.execute("CREATE TABLE Gene (GID TEXT, Len INT)").unwrap();
            db.execute("INSERT INTO Gene VALUES ('JW0080', 11), ('JW0081', 9)")
                .unwrap();
            db.execute("CREATE INDEX len_idx ON Gene (Len)").unwrap();
            db.execute("CREATE ANNOTATION TABLE Curation ON Gene")
                .unwrap();
            db.execute(
                "ADD ANNOTATION TO Gene.Curation VALUE '<A>x</A>' \
                 ON (SELECT G.GID FROM Gene G)",
            )
            .unwrap();
            db.close().unwrap();
            // pull the meta blob back off the image and strip its frame
            let pool = Arc::new(BufferPool::new(
                Box::new(FileStore::open(dir.join(DATA_FILE)).unwrap()),
                64,
            ));
            let meta_rid = pool.with_page(PageId(0), read_header).unwrap().unwrap();
            let blob = HeapFile::attach(pool.clone(), Vec::new())
                .get(meta_rid)
                .unwrap();
            drop(pool);
            let _ = fs::remove_dir_all(&dir);
            blob[16..].to_vec()
        })
    }

    fn frame_body(body: &[u8]) -> Vec<u8> {
        let mut blob = Vec::with_capacity(body.len() + 16);
        (FORMAT_VERSION, crc32(body), body.len() as u64).encode(&mut blob);
        blob.extend_from_slice(body);
        blob
    }

    fn decode_fresh(blob: &[u8]) -> Result<u64> {
        let pool = Arc::new(BufferPool::new(Box::new(MemStore::new()), 64));
        let mut db = Database::with_pool(pool.clone());
        decode_snapshot_mode(&mut db, blob, &pool, None)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// WAL payloads come off disk: arbitrary bytes must decode to
        /// `Err`, never panic or over-allocate.
        #[test]
        fn wal_record_decode_never_panics(
            bytes in prop::collection::vec(any::<u8>(), 0..96),
        ) {
            let _ = decode_exact::<WalRecord>(&bytes);
        }

        /// Single-byte mutations of every record variant: decode may
        /// succeed (the flip hit a don't-care byte) or fail, but never
        /// panic.
        #[test]
        fn mutated_wal_records_never_panic(pos_seed in any::<u64>(), flip in 1u8..=255) {
            for rec in sample_records() {
                let mut buf = Vec::new();
                rec.encode(&mut buf);
                let pos = (pos_seed % buf.len() as u64) as usize;
                buf[pos] ^= flip;
                let _ = decode_exact::<WalRecord>(&buf);
            }
        }

        /// The codec laws for every WAL record variant and every record
        /// type a variant carries.
        #[test]
        fn wal_records_keep_the_codec_laws(pos in any::<u64>(), mask in 1u8..=255) {
            let flip = (pos, mask);
            for rec in sample_records() {
                assert_codec_laws(&rec, flip);
                // and every record type nested in one
                match &rec {
                    WalRecord::DeletedLogPush { row, .. } => assert_codec_laws(row, flip),
                    WalRecord::TableCreate { schema, .. } => assert_codec_laws(schema, flip),
                    WalRecord::Grant { privileges, .. } => assert_codec_laws(privileges, flip),
                    WalRecord::ApprovalLogged { op } => assert_codec_laws(op, flip),
                    WalRecord::RuleAdd { rule } => assert_codec_laws(rule, flip),
                    _ => {}
                }
            }
            let inverses = [
                InverseOp::DeleteRow { row_no: pos },
                InverseOp::InsertRow { row_no: pos, values: vec![Value::Int(2), Value::Null] },
                InverseOp::RestoreCells { row_no: 1, old: vec![(3, Value::Text("x".into()))] },
            ];
            for inverse in &inverses {
                assert_codec_laws(inverse, flip);
            }
            for status in [OpStatus::Pending, OpStatus::Approved, OpStatus::Disapproved] {
                assert_codec_laws(&status, flip);
            }
            for p in [Privilege::Select, Privilege::Insert, Privilege::Update, Privilege::Delete, Privilege::Provenance] {
                assert_codec_laws(&p, flip);
            }
            for format in [CopyFormat::Fasta, CopyFormat::Tsv] {
                assert_codec_laws(&format, flip);
            }
            for kind in [SeqIndexKind::Sbc, SeqIndexKind::Suffix] {
                assert_codec_laws(&kind, flip);
            }
        }

        /// Framed garbage with a *valid* CRC (so the fuzz reaches the
        /// field decoders rather than dying at the checksum gate) must
        /// surface `Err`, never panic.
        #[test]
        fn snapshot_decode_never_panics(
            body in prop::collection::vec(any::<u8>(), 0..256),
        ) {
            let _ = decode_fresh(&frame_body(&body));
        }

        /// Single-byte mutations of a real checkpoint body, re-framed
        /// with a matching CRC: every deep decoder (auth, approval,
        /// dependency rules, tables, bitmaps, annotation sets) must
        /// reject or tolerate the damage without panicking.
        #[test]
        fn mutated_real_snapshot_never_panics(pos_seed in any::<u64>(), flip in 1u8..=255) {
            let mut body = real_snapshot_body().to_vec();
            let pos = (pos_seed % body.len() as u64) as usize;
            body[pos] ^= flip;
            let _ = decode_fresh(&frame_body(&body));
        }
    }

    // ---- golden bytes ----
    //
    // The on-disk encodings, pinned byte for byte: a WAL written by an
    // older build must replay on a newer one, and a checkpoint image
    // must reopen.  Any change here is a format change and needs a new
    // FORMAT_VERSION, not an edit of these constants.

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    /// `sample_records()` encoded, one entry per variant, in order.
    const GOLDEN_WAL_RECORDS: [&str; 27] = [
        "010400000047656e6503000000000000000300000003060000004a5730303830010b0000000000000000",
        "020400000047656e65030000000000000001000000020000000000000440",
        "030400000047656e650900000000000000",
        "040400000047656e6501000000000000000200000000000000",
        "050400000047656e6501000000000000000200000000000000",
        concat!(
            "060400000047656e6504000000000000000100000004010103000000776879080000000000000005",
            "000000616c696365",
        ),
        "070400000047656e650500000061646d696e020000000300000047494403030000004c656e01",
        "080400000047656e65",
        "090400000047656e65070000006c656e5f696478030000004c656e",
        "0a0400000047656e65070000006c656e5f696478",
        "0b0400000047656e65080000004375726174696f6e000101",
        "0c0400000047656e65080000004375726174696f6e",
        concat!(
            "0d0400000047656e65080000004375726174696f6e1a0000003c416e6e6f746174696f6e3e783c2f",
            "416e6e6f746174696f6e3e03000000626f620c000000000000000300000000000000000000000100",
            "0000000000000500000000000000010000000200000000000000",
        ),
        concat!(
            "0e0400000047656e65080000004375726174696f6e02000000000000000000000002000000000000",
            "0001000000000000000200000000000000010300000000000000090000000000000001",
        ),
        "0f05000000616c69636501000000040000006c616231",
        "1005000000616c6963650400000047656e65020000000004",
        "1105000000616c6963650400000047656e650100000002",
        "120400000047656e650101000000090000006773657175656e6365080000006c616261646d696e",
        "130400000047656e6500000000",
        concat!(
            "1405000000000000000400000047656e6505000000616c6963652c000000000000000b0000005550",
            "444154452047656e6502020000000000000001000000010000000000000001070000000000000000",
        ),
        "15050000000000000000",
        concat!(
            "1602000000000000000200000072310400000047656e6501000000090000004753657175656e6365",
            "0700000050726f7465696e090000005053657175656e6365090000007472616e736c617465010001",
            "0300000047494403000000474944",
        ),
        "17020000007231",
        "186300000000000000",
        "190400000047656e65100000002f746d702f67656e65732e66617374610050c3000000000000",
        "1a0400000047656e65070000007365715f696478090000004753657175656e636500",
        "1b0400000047656e65070000007365715f696478",
    ];

    #[test]
    fn wal_records_match_golden_bytes() {
        let recs = sample_records();
        assert_eq!(recs.len(), GOLDEN_WAL_RECORDS.len());
        for (rec, want) in recs.iter().zip(GOLDEN_WAL_RECORDS) {
            let mut buf = Vec::new();
            rec.encode(&mut buf);
            assert_eq!(hex(&buf), want, "format drift for {rec:?}");
        }
    }

    /// `real_snapshot_body()`: the checkpoint metadata of a database
    /// with one table, two rows, a B+-tree index, and an annotation set.
    const GOLDEN_SNAPSHOT_BODY: &str = concat!(
        "05000000000000000c00000000000000010000000500000061646d696e0000000000000000000000",
        "00000000000000000000000000000000000000000000000000010000000400000047656e65050000",
        "0061646d696e020000000300000047494403030000004c656e010200000000000000010000000100",
        "00000000000002000000000000000000000001000000000000000000010000000000000001000000",
        "00000000010001000000070000006c656e5f69647801000000000000000200000000000000020000",
        "0000000000000000000000000001000000080000004375726174696f6e0000010000000000000001",
        "0000000000000000000000080000003c413e783c2f413e05000000000000000500000061646d696e",
        "0001010000000000000000000000000000000000000001000000000000000000000000000000",
    );

    #[test]
    fn snapshot_body_matches_golden_bytes() {
        assert_eq!(hex(real_snapshot_body()), GOLDEN_SNAPSHOT_BODY);
        // and the pinned bytes still parse to the end.  The table's heap
        // pages are not in this empty pool, so its rebuild fails and
        // salvage mode quarantines it — after every byte was consumed.
        let blob = frame_body(&unhex(GOLDEN_SNAPSHOT_BODY));
        let pool = Arc::new(BufferPool::new(Box::new(MemStore::new()), 64));
        let mut db = Database::with_pool(pool.clone());
        let mut quarantined = Vec::new();
        decode_snapshot_mode(&mut db, &blob, &pool, Some(&mut quarantined)).unwrap();
        assert_eq!(quarantined, vec!["Gene".to_string()]);
    }
}
