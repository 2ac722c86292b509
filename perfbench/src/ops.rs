//! The operation classes, run through the engine's public client API
//! (`Connection`: an embedded `Session` or a `RemoteConnection`), timed,
//! optionally traced, and checked against the generator's model.

use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::ops::Bound;
use std::sync::Arc;
use std::time::Instant;

use bdbms_common::Value;
use bdbms_core::client::{Connection, StatementHandle};
use bdbms_core::{Database, QueryResult};
use bdbms_storage::buffer::{BufferPool, BufferPoolMetrics};

use crate::model::{gid, Model};
use crate::trace::{set_counting, Tracer};

/// Operation classes; each keeps its own latency samples.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Class {
    Point,
    Adhoc,
    Range,
    Annot,
    Seq,
    Scan,
    Filter,
    Join,
    Commit,
}

pub const CLASSES: usize = 9;

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::Point => "op.point",
            Class::Adhoc => "op.adhoc",
            Class::Range => "op.range",
            Class::Annot => "op.annot",
            Class::Seq => "op.seq",
            Class::Scan => "op.scan",
            Class::Filter => "op.filter",
            Class::Join => "op.join",
            Class::Commit => "op.commit",
        }
    }
}

/// One operation with its generated parameters.
#[derive(Clone, Copy, Debug)]
pub enum Op {
    /// Prepared point lookup by `Len`.
    Point(i64),
    /// The same lookup as one-shot SQL text.
    Adhoc(i64),
    /// Prepared 1% range `lo <= Len < lo + genes/100`.
    Range(i64),
    /// Prepared point lookup with `ANNOTATION(Curation)`.
    Annot(i64),
    /// One-shot `CONTAINS SEQ` with the model's pattern `i`.
    Seq(usize),
    /// Full-scan `COUNT/SUM/MIN/MAX(Len)`.
    Scan,
    /// Non-indexed filter `Len % 10 = 3`.
    Filter,
    /// Hash join `Tag ⋈ Gene` on `Len`.
    Join,
    /// Prepared single-row `UPDATE … SET GName` by `Len`.
    Update(i64),
    /// Prepared `INSERT` of a new gene.
    Insert,
    /// One-shot `ADD ANNOTATION` on one gene's `GName`.
    Note(i64),
    /// Prepared single-row `UPDATE` of the `Note` side table.
    Touch(i64),
}

impl Op {
    pub fn class(self) -> Class {
        match self {
            Op::Point(_) => Class::Point,
            Op::Adhoc(_) => Class::Adhoc,
            Op::Range(_) => Class::Range,
            Op::Annot(_) => Class::Annot,
            Op::Seq(_) => Class::Seq,
            Op::Scan => Class::Scan,
            Op::Filter => Class::Filter,
            Op::Join => Class::Join,
            Op::Update(_) | Op::Insert | Op::Note(_) | Op::Touch(_) => Class::Commit,
        }
    }
}

/// Prepared statements, indexed by [`Q`].
const STATEMENTS: [&str; 9] = [
    "SELECT GID, GName FROM Gene WHERE Len = ?",
    "SELECT GID FROM Gene WHERE Len >= ? AND Len < ?",
    "SELECT GID, GName FROM Gene ANNOTATION(Curation) WHERE Len = ?",
    "SELECT COUNT(*), SUM(Len), MIN(Len), MAX(Len) FROM Gene",
    "SELECT GID FROM Gene WHERE Len % 10 = 3",
    "SELECT G.GID, T.TName FROM Tag T, Gene G WHERE T.Len = G.Len",
    "UPDATE Gene SET GName = ? WHERE Len = ?",
    "INSERT INTO Gene VALUES (?, ?, ?, ?, ?)",
    "UPDATE Note SET V = ? WHERE K = ?",
];

#[derive(Clone, Copy)]
enum Q {
    Point,
    Range,
    Annot,
    Scan,
    Filter,
    Join,
    Update,
    Insert,
    Touch,
}

/// What the acknowledged writes of one client changed: the oracle's
/// view on top of the generated base data.
#[derive(Default, Clone)]
pub struct State {
    /// Current `GName` of updated genes, by `Len`.
    pub names: HashMap<i64, String>,
    /// Inserted genes: `(Len, GID, GName)`.
    pub inserted: Vec<(i64, String, String)>,
    /// Per-gene annotation texts added, by `Len`.
    pub notes: HashMap<i64, Vec<String>>,
}

impl State {
    pub fn merge(&mut self, other: State) {
        self.names.extend(other.names);
        self.inserted.extend(other.inserted);
        for (k, v) in other.notes {
            self.notes.entry(k).or_default().extend(v);
        }
    }

    fn name(&self, m: &Model, len: i64) -> String {
        match self.names.get(&len) {
            Some(n) => n.clone(),
            None => m.base_name(m.row_of(len)),
        }
    }
}

/// Running count and total time of one kind of call.
#[derive(Default, Clone, Copy)]
pub struct Acc {
    pub n: u64,
    pub ns: u64,
}

impl Acc {
    fn add_ns(&mut self, ns: u64) {
        self.n += 1;
        self.ns += ns;
    }

    /// Mean in microseconds (0 when never called).
    pub fn mean_us(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.ns as f64 / self.n as f64 / 1e3
        }
    }
}

/// Per-layer counts of the traced blocks that spans cannot carry: the
/// engine's `ExecStats`, the SBC-tree's candidates and buffer counters.
/// Call times come from the spans (`trace::self_times`).
#[derive(Default)]
pub struct Layers {
    pub plan: Acc,
    pub exec: Acc,
    /// Ops whose result carried `ExecStats`.
    pub stats_ops: u64,
    pub rows_fetched: u64,
    pub anns_attached: u64,
    pub seq_candidates: u64,
    pub point_ops: u64,
    pub point_misses: u64,
    /// Buffer hits/misses/evictions caused by the benchmark's own layer
    /// calls (index probe, heap get), kept out of the engine's counts.
    pub excluded: [u64; 3],
}

/// Buffer-pool counters read from `Database::pool()`, following the pool
/// across checkpoints (each installs a fresh pool with fresh counters).
pub struct PoolWatch {
    pool: Arc<BufferPool>,
    m: BufferPoolMetrics,
    retired: [u64; 3],
}

impl PoolWatch {
    pub fn new(db: &Database) -> PoolWatch {
        PoolWatch {
            pool: db.pool().clone(),
            m: db.pool().metrics(),
            retired: [0; 3],
        }
    }

    pub fn refresh(&mut self, db: &Database) {
        if !Arc::ptr_eq(db.pool(), &self.pool) {
            let now = self.live();
            for (r, v) in self.retired.iter_mut().zip(now) {
                *r += v;
            }
            self.pool = db.pool().clone();
            self.m = self.pool.metrics();
        }
    }

    fn live(&self) -> [u64; 3] {
        [
            self.m.hits.get(),
            self.m.misses.get(),
            self.m.evictions.get(),
        ]
    }

    /// Cumulative `[hits, misses, evictions]` over every pool seen.
    pub fn counts(&self) -> [u64; 3] {
        let live = self.live();
        [
            self.retired[0] + live[0],
            self.retired[1] + live[1],
            self.retired[2] + live[2],
        ]
    }
}

/// One client: a connection, its prepared statements, its samples.
pub struct Client<'c> {
    conn: &'c mut dyn Connection,
    stmts: Vec<StatementHandle>,
    /// Connection number: keys and generated names are partitioned by it.
    id: i64,
    next: u64,
    pub tr: Tracer,
    /// Count allocations around this client's engine calls (single-client
    /// workloads; `curate` counts process-wide instead).
    pub count_allocs: bool,
    /// Segment of the run that samples are recorded under.
    pub seg: u32,
    pub lat: Samples,
    pub layers: Layers,
    pub pool: Option<PoolWatch>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

/// Latency samples per class: `(segment, ns)`.
pub type Samples = Vec<Vec<(u32, u64)>>;

/// A client's samples and counts once it is done.
pub struct Finished {
    pub lat: Samples,
    pub tr: Tracer,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

type Checked = std::result::Result<u64, String>;

impl<'c> Client<'c> {
    /// Prepare the statements (spans `session.prepare` when traced).
    pub fn new(
        conn: &'c mut dyn Connection,
        id: i64,
        mut tr: Tracer,
    ) -> bdbms_common::Result<Self> {
        let mut stmts = Vec::new();
        for sql in STATEMENTS {
            let sp = tr.begin("session.prepare");
            stmts.push(conn.prepare(sql)?);
            tr.end(sp);
        }
        let pool = conn.local_database().map(|db| PoolWatch::new(db));
        Ok(Client {
            conn,
            stmts,
            id,
            next: 0,
            tr,
            count_allocs: false,
            seg: 0,
            lat: vec![Vec::new(); CLASSES],
            layers: Layers::default(),
            pool,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        })
    }

    pub fn conn(&mut self) -> &mut dyn Connection {
        self.conn
    }

    pub fn finish(self) -> Finished {
        Finished {
            lat: self.lat,
            tr: self.tr,
            attempted: self.attempted,
            failed: self.failed,
            errors: self.errors,
        }
    }

    /// Run, time, and check one operation.  Returns false if it failed.
    pub fn run(&mut self, m: &Model, s: &mut State, op: Op) -> bool {
        let class = op.class();
        let root = self.tr.begin_op(class.name());
        let before = self.pool_counts();
        let outcome = self.exec(m, s, op);
        if self.tr.on() && class == Class::Point {
            if let (Some(b), Some(a)) = (before, self.pool_counts()) {
                self.layers.point_ops += 1;
                self.layers.point_misses += a[1] - b[1];
            }
        }
        self.tr.end(root);
        self.attempted += 1;
        match outcome {
            Ok(ns) => {
                self.lat[class as usize].push((self.seg, ns));
                true
            }
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < 8 {
                    self.errors.push(format!("{op:?}: {e}"));
                }
                false
            }
        }
    }

    /// Buffer counters, after following any pool swap (embedded only).
    pub fn pool_counts(&mut self) -> Option<[u64; 3]> {
        let db = self.conn.local_database()?;
        let w = self.pool.as_mut()?;
        w.refresh(db);
        Some(w.counts())
    }

    fn counting(&self, on: bool) {
        if self.count_allocs {
            set_counting(on);
        }
    }

    fn query(&mut self, q: Q, params: &[Value]) -> bdbms_common::Result<QueryResult> {
        let sp = self.tr.begin("conn.query");
        self.counting(true);
        let opened = self.conn.query(&self.stmts[q as usize], params);
        self.tr.end(sp);
        let sp = self.tr.begin("conn.fetch");
        let res = opened.and_then(|mut rows| rows.collect_result());
        self.counting(false);
        self.tr.end(sp);
        res
    }

    fn execute(&mut self, q: Q, params: &[Value]) -> bdbms_common::Result<QueryResult> {
        let sp = self.tr.begin("conn.execute");
        self.counting(true);
        let r = self.conn.execute(&self.stmts[q as usize], params);
        self.counting(false);
        self.tr.end(sp);
        r
    }

    fn run_sql(&mut self, sql: &str) -> bdbms_common::Result<QueryResult> {
        let sp = self.tr.begin("conn.run");
        self.counting(true);
        let r = self.conn.run(sql);
        self.counting(false);
        self.tr.end(sp);
        r
    }

    /// Traced only: time `parser::parse` on the statement text.
    fn trace_parse(&mut self, sql: &str) {
        if !self.tr.on() {
            return;
        }
        let sp = self.tr.begin("parser.parse");
        let parsed = black_box(bdbms_core::parser::parse(black_box(sql)));
        self.tr.end(sp);
        drop(parsed);
    }

    /// Traced only: time the B+-tree probe for `Len = k` (and, with
    /// `fetch`, the heap fetch of the row it finds) through the
    /// catalog's public `TableIndex::probe` / `Table::get`.
    fn trace_index(&mut self, k: i64, fetch: bool) {
        if !self.tr.on() {
            return;
        }
        let before = self.pool_counts();
        let Some(db) = self.conn.local_database() else {
            return;
        };
        let Ok(table) = db.catalog().table("Gene") else {
            return;
        };
        let Some(idx) = table.indexes().iter().find(|i| i.name == "len_idx") else {
            return;
        };
        let key = Value::Int(k);
        let sp = self.tr.begin("index.probe");
        let rows = black_box(idx.probe(Bound::Included(&key), Bound::Included(&key)));
        self.tr.end(sp);
        if let (true, Some(&row)) = (fetch, rows.first()) {
            let sp = self.tr.begin("heap.get");
            let _ = black_box(table.get(row));
            self.tr.end(sp);
        }
        if let (Some(b), Some(a)) = (before, self.pool_counts()) {
            for i in 0..3 {
                self.layers.excluded[i] += a[i] - b[i];
            }
        }
    }

    /// Traced only: time the SBC-tree probe through `SeqIndex::probe`.
    fn trace_seq(&mut self, pattern: &str) {
        if !self.tr.on() {
            return;
        }
        let Some(db) = self.conn.local_database() else {
            return;
        };
        let Some(idx) = db
            .catalog()
            .table("Prot")
            .ok()
            .and_then(|t| t.seq_indexes().first())
        else {
            return;
        };
        let sp = self.tr.begin("seq.probe");
        let hits = black_box(idx.probe(pattern));
        self.tr.end(sp);
        self.layers.seq_candidates += hits.len() as u64;
    }

    fn note_stats(&mut self, r: &QueryResult) {
        if !self.tr.on() {
            return;
        }
        if let Some(st) = &r.stats {
            self.layers.stats_ops += 1;
            self.layers.plan.add_ns(st.plan_ns);
            self.layers.exec.add_ns(st.exec_ns);
            self.layers.rows_fetched += st.rows_fetched;
            self.layers.anns_attached += st.anns_attached;
        }
    }

    fn exec(&mut self, m: &Model, s: &mut State, op: Op) -> Checked {
        let n = m.sizes.genes as i64;
        match op {
            Op::Point(k) => {
                let t0 = Instant::now();
                let r = self.query(Q::Point, &[Value::Int(k)]);
                let lat = elapsed_ns(t0);
                self.trace_index(k, true);
                let r = r.map_err(|e| e.to_string())?;
                self.note_stats(&r);
                check_gene(m, s, k, &r)?;
                Ok(lat)
            }
            Op::Adhoc(k) => {
                let sql = format!("SELECT GID, GName FROM Gene WHERE Len = {k}");
                self.trace_parse(&sql);
                let t0 = Instant::now();
                let r = self.run_sql(&sql);
                let lat = elapsed_ns(t0);
                self.trace_index(k, true);
                let r = r.map_err(|e| e.to_string())?;
                self.note_stats(&r);
                check_gene(m, s, k, &r)?;
                Ok(lat)
            }
            Op::Range(lo) => {
                let hi = lo + n / 100;
                let t0 = Instant::now();
                let r = self.query(Q::Range, &[Value::Int(lo), Value::Int(hi)]);
                let lat = elapsed_ns(t0);
                self.trace_index(lo, false);
                let r = r.map_err(|e| e.to_string())?;
                self.note_stats(&r);
                let mut lens = Vec::with_capacity(r.rows.len());
                for row in &r.rows {
                    let g = text(&row.values[0])?;
                    let len = m.len_of(m.gene_row(g).ok_or_else(|| format!("foreign GID {g}"))?);
                    if len < lo || len >= hi {
                        return Err(format!("{g} (Len {len}) outside [{lo}, {hi})"));
                    }
                    lens.push(len);
                }
                lens.sort_unstable();
                lens.dedup();
                if lens.len() as i64 != hi - lo || r.rows.len() != lens.len() {
                    return Err(format!("{} rows, want {}", r.rows.len(), hi - lo));
                }
                Ok(lat)
            }
            Op::Annot(k) => {
                let t0 = Instant::now();
                let r = self.query(Q::Annot, &[Value::Int(k)]);
                let lat = elapsed_ns(t0);
                self.trace_index(k, true);
                let r = r.map_err(|e| e.to_string())?;
                self.note_stats(&r);
                check_gene(m, s, k, &r)?;
                let mut got: Vec<String> = r.rows[0].all_anns().iter().map(|a| a.text()).collect();
                let mut want = vec![m.note.clone()];
                want.extend(s.notes.get(&k).into_iter().flatten().cloned());
                got.sort();
                want.sort();
                if got != want {
                    return Err(format!("annotations {got:?}, want {want:?}"));
                }
                Ok(lat)
            }
            Op::Seq(i) => {
                let (pat, want) = &m.patterns[i];
                let sql = format!("SELECT Hdr FROM Prot WHERE SS CONTAINS SEQ '{pat}'");
                self.trace_parse(&sql);
                let t0 = Instant::now();
                let r = self.run_sql(&sql);
                let lat = elapsed_ns(t0);
                self.trace_seq(pat);
                let r = r.map_err(|e| e.to_string())?;
                self.note_stats(&r);
                let mut got = r
                    .rows
                    .iter()
                    .map(|row| text(&row.values[0]).map(str::to_string))
                    .collect::<std::result::Result<Vec<_>, _>>()?;
                got.sort();
                if &got != want {
                    return Err(format!("{} hits, want {}", got.len(), want.len()));
                }
                Ok(lat)
            }
            Op::Scan => {
                let t0 = Instant::now();
                let r = self.query(Q::Scan, &[]);
                let lat = elapsed_ns(t0);
                let r = r.map_err(|e| e.to_string())?;
                self.note_stats(&r);
                let extra: Vec<i64> = s.inserted.iter().map(|x| x.0).collect();
                let want = [
                    n + extra.len() as i64,
                    n * (n - 1) / 2 + extra.iter().sum::<i64>(),
                    0,
                    extra.iter().copied().max().unwrap_or(0).max(n - 1),
                ];
                let got = r
                    .rows
                    .first()
                    .ok_or("no aggregate row")?
                    .values
                    .iter()
                    .map(int)
                    .collect::<std::result::Result<Vec<_>, _>>()?;
                if got != want {
                    return Err(format!("aggregate {got:?}, want {want:?}"));
                }
                Ok(lat)
            }
            Op::Filter => {
                let t0 = Instant::now();
                let r = self.query(Q::Filter, &[]);
                let lat = elapsed_ns(t0);
                let r = r.map_err(|e| e.to_string())?;
                self.note_stats(&r);
                let extra = s.inserted.iter().filter(|x| x.0 % 10 == 3).count();
                if r.rows.len() != m.filter_count() + extra {
                    return Err(format!(
                        "{} rows, want {}",
                        r.rows.len(),
                        m.filter_count() + extra
                    ));
                }
                let inserted: HashSet<&str> = s.inserted.iter().map(|x| x.1.as_str()).collect();
                for row in &r.rows {
                    let g = text(&row.values[0])?;
                    match m.gene_row(g) {
                        Some(r) if m.len_of(r) % 10 == 3 => {}
                        Some(_) => return Err(format!("{g} fails Len % 10 = 3")),
                        None if inserted.contains(g) => {}
                        None => return Err(format!("foreign GID {g}")),
                    }
                }
                Ok(lat)
            }
            Op::Join => {
                let t0 = Instant::now();
                let r = self.query(Q::Join, &[]);
                let lat = elapsed_ns(t0);
                let r = r.map_err(|e| e.to_string())?;
                self.note_stats(&r);
                if r.rows.len() != m.sizes.tags {
                    return Err(format!("{} rows, want {}", r.rows.len(), m.sizes.tags));
                }
                let mut seen = vec![false; m.sizes.tags];
                for row in &r.rows {
                    let g = text(&row.values[0])?;
                    let tag = text(&row.values[1])?;
                    let t: usize = tag
                        .strip_prefix("tag")
                        .and_then(|t| t.parse().ok())
                        .filter(|&t| t < m.sizes.tags)
                        .ok_or_else(|| format!("foreign tag {tag}"))?;
                    if seen[t] || g != gid(m.row_of(m.tag_len(t))) {
                        return Err(format!("{tag} joined with {g}"));
                    }
                    seen[t] = true;
                }
                Ok(lat)
            }
            Op::Update(k) => {
                let name = self.fresh("u");
                let t0 = Instant::now();
                let r = self.execute(Q::Update, &[Value::Text(name.clone()), Value::Int(k)]);
                let lat = elapsed_ns(t0);
                affected_one(r)?;
                s.names.insert(k, name);
                Ok(lat)
            }
            Op::Insert => {
                let g = self.fresh("N");
                let name = self.fresh("i");
                let len = n + 2 * self.next as i64 + self.id;
                let t0 = Instant::now();
                let r = self.execute(
                    Q::Insert,
                    &[
                        Value::Text(g.clone()),
                        Value::Text(name.clone()),
                        Value::Int(len),
                        Value::Int(len % 100),
                        Value::Text("ACGTACGTACGT".into()),
                    ],
                );
                let lat = elapsed_ns(t0);
                affected_one(r)?;
                s.inserted.push((len, g, name));
                Ok(lat)
            }
            Op::Touch(k) => {
                let v = self.fresh("t");
                let t0 = Instant::now();
                let r = self.execute(Q::Touch, &[Value::Text(v), Value::Int(k)]);
                let lat = elapsed_ns(t0);
                affected_one(r)?;
                Ok(lat)
            }
            Op::Note(k) => {
                let text = self.fresh("checked by curator ");
                let sql = format!(
                    "ADD ANNOTATION TO Gene.Curation VALUE '{text}' \
                     ON (SELECT G.GName FROM Gene G WHERE G.Len = {k})"
                );
                self.trace_parse(&sql);
                let t0 = Instant::now();
                let r = self.run_sql(&sql);
                let lat = elapsed_ns(t0);
                r.map_err(|e| e.to_string())?;
                s.notes.entry(k).or_default().push(text);
                Ok(lat)
            }
        }
    }

    /// A name no other write of any client uses.
    fn fresh(&mut self, prefix: &str) -> String {
        self.next += 1;
        format!("{prefix}{}x{}", self.id, self.next)
    }

    /// Read back every acknowledged write in `s` (one check per gene).
    /// Counts toward `attempted`/`failed`, not toward any latency.
    pub fn verify_writes(&mut self, m: &Model, s: &mut State) {
        let mut keys: Vec<i64> = s.names.keys().chain(s.notes.keys()).copied().collect();
        keys.sort_unstable();
        keys.dedup();
        let timed = self.lat[Class::Annot as usize].len();
        for k in keys {
            self.run(m, s, Op::Annot(k));
        }
        self.lat[Class::Annot as usize].truncate(timed);
        for i in 0..s.inserted.len() {
            let (len, g, name) = s.inserted[i].clone();
            self.attempted += 1;
            let r = self.query(Q::Point, &[Value::Int(len)]);
            let ok = matches!(&r, Ok(r) if r.rows.len() == 1
                && r.rows[0].values[0] == Value::Text(g.clone())
                && r.rows[0].values[1] == Value::Text(name.clone()));
            if !ok {
                self.failed += 1;
                if self.errors.len() < 8 {
                    self.errors
                        .push(format!("inserted gene {g} (Len {len}) not read back"));
                }
            }
        }
    }
}

fn elapsed_ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

fn text(v: &Value) -> std::result::Result<&str, String> {
    match v {
        Value::Text(s) => Ok(s),
        other => Err(format!("expected text, got {other:?}")),
    }
}

fn int(v: &Value) -> std::result::Result<i64, String> {
    match v {
        Value::Int(i) => Ok(*i),
        Value::Float(f) if f.fract() == 0.0 => Ok(*f as i64),
        other => Err(format!("expected integer, got {other:?}")),
    }
}

/// The result is exactly the gene with `Len = k`, under its current name.
fn check_gene(m: &Model, s: &State, k: i64, r: &QueryResult) -> std::result::Result<(), String> {
    if r.rows.len() != 1 {
        return Err(format!("{} rows for Len = {k}, want 1", r.rows.len()));
    }
    let row = &r.rows[0];
    let (want_gid, want_name) = (gid(m.row_of(k)), s.name(m, k));
    if text(&row.values[0])? != want_gid || text(&row.values[1])? != want_name {
        return Err(format!(
            "Len = {k} gave {:?}, want ({want_gid}, {want_name})",
            row.values
        ));
    }
    Ok(())
}

fn affected_one(r: bdbms_common::Result<QueryResult>) -> std::result::Result<(), String> {
    match r {
        Ok(r) if r.affected == 1 => Ok(()),
        Ok(r) => Err(format!("{} rows affected, want 1", r.affected)),
        Err(e) => Err(e.to_string()),
    }
}
