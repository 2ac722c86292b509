//! The three workloads: set-up, closed loops, reference battery.
//!
//! * `browse` — embedded, read-only, data inside the buffer pool: the
//!   parse / plan / executor / index / annotation / SBC-tree path with no
//!   storage misses and no WAL.
//! * `analyze-cold` — embedded, data ≥ 3× the pool: scans, a non-indexed
//!   filter and a hash join, each followed by uniform point lookups, so
//!   buffer misses, page reads and heap decode dominate.
//! * `curate` — two wire clients against an in-process server: reads
//!   beside durable single-row writes (WAL, fsync, group commit,
//!   checkpoints, index maintenance).  `browse` is its no-wire control.

use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use bdbms_client::RemoteConnection;
use bdbms_common::metrics::MetricsSnapshot;
use bdbms_core::client::Connection;
use bdbms_core::{Database, DurabilityOptions};
use bdbms_server::proto::{read_response, write_request, Request, Response};
use bdbms_server::{Server, ServerConfig};

use crate::model::{Model, Rng, Sizes};
use crate::ops::{Class, Client, Layers, Op, Samples, State, CLASSES};
use crate::trace::{alloc_counts, set_counting, Tracer};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Browse,
    AnalyzeCold,
    Curate,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Browse => "browse",
            Kind::AnalyzeCold => "analyze-cold",
            Kind::Curate => "curate",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        [Kind::Browse, Kind::AnalyzeCold, Kind::Curate]
            .into_iter()
            .find(|k| k.name() == s)
    }

    pub fn sizes(self) -> Sizes {
        match self {
            Kind::Browse => Sizes {
                genes: 40_000,
                tags: 400,
                prots: 4_000,
            },
            Kind::AnalyzeCold => Sizes {
                genes: 200_000,
                tags: 2_000,
                prots: 4_000,
            },
            // inside the pool, so curate isolates the write path and
            // analyze-cold the buffer misses: ≈330 pages after set-up, and
            // a 20 s run at ≈10k ops/s adds ≈350, so twice that rate still
            // fits (`run_served` checks again after the run)
            Kind::Curate => Sizes {
                genes: 16_000,
                tags: 160,
                prots: 1_000,
            },
        }
    }

    /// Classes the workload's own mix runs; the reference battery covers
    /// the rest, so every workload reports every end-to-end metric.
    fn mix(self) -> &'static [Class] {
        match self {
            Kind::Browse => &[
                Class::Point,
                Class::Adhoc,
                Class::Range,
                Class::Annot,
                Class::Seq,
            ],
            Kind::AnalyzeCold => &[Class::Point, Class::Scan, Class::Filter, Class::Join],
            Kind::Curate => &[Class::Point, Class::Commit],
        }
    }

    /// Set-ups per run: `setup_s` is their median, `copy_rows_per_s` the
    /// quickest.  The smaller databases load faster, so they take more
    /// set-ups to steady their shorter `COPY`s.
    fn setups(self) -> usize {
        match self {
            Kind::Browse => 5,
            Kind::AnalyzeCold => 3,
            Kind::Curate => 9,
        }
    }

    /// Traced operations per client, over all traced blocks.
    fn traced_ops(self) -> u64 {
        match self {
            Kind::Browse => 20_000,
            // eight rounds of one scan-class query + 150 point lookups
            Kind::AnalyzeCold => 8 * ROUND,
            Kind::Curate => 4_000,
        }
    }
}

/// Rows of the battery's `Note` side table.
const NOTES: usize = 64;
/// Traced blocks of a `--trace 1` run (each followed by an untraced one).
const TRACE_BLOCKS: u64 = 4;
/// `analyze-cold`: one scan-class query, then 150 point lookups.
const ROUND: u64 = 151;
/// Wire clients of `curate` (the VM has two cores).
const CURATE_CLIENTS: i64 = 2;
/// The timed loop runs in this many equal segments, with a slice of the
/// reference battery after each.  On a shared 2-vCPU VM, CPU speed
/// drifts by up to ~30% over seconds, so each timing is taken from the
/// quicker half of its segments: see `main.rs`.
const SEGMENTS: u32 = 16;
/// Reference battery for classes a workload's mix does not run:
/// `(class, operations per run)`, untraced, outside the loop's clock.
const BATTERY: [(Class, u32); 6] = [
    (Class::Adhoc, 480),
    (Class::Range, 64),
    (Class::Annot, 480),
    (Class::Seq, 480),
    (Class::Scan, 64),
    // below the 1,024-commit checkpoint interval: no checkpoint lands in
    // the run of a read-only workload
    (Class::Commit, 960),
];

pub struct Args {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// CPUs the process may use, ascending; it starts pinned to the last.
    pub cpus: Vec<usize>,
}

/// Everything a run measured, before formatting.
pub struct Outcome {
    pub setup_s: Vec<f64>,
    pub copy_rows_per_s: Vec<f64>,
    pub copy_ckpt_ms: f64,
    /// Database pages after set-up and at the end of the run.
    pub pages: (u64, u64),
    /// Timed-loop `(ops, seconds)` per segment.
    pub segments: Vec<(u64, f64)>,
    /// Latency samples per class, and where each class came from.
    pub lat: Samples,
    pub from_battery: Vec<bool>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub disk_bytes: u64,
    pub traced: Option<Traced>,
}

/// The traced phase: `TRACE_BLOCKS` traced blocks alternating with as
/// many untraced blocks of the same op count, so the tracing overhead
/// compares like with like while the host's speed drifts.  Every block
/// has a fixed op count, so a single-client run is deterministic.
pub struct Traced {
    pub layers: Layers,
    pub embedded: bool,
    /// `(ops, seconds)` of the traced and of the untraced blocks.
    pub traced: (u64, f64),
    pub untraced: (u64, f64),
    /// Registry around the whole phase (both kinds of block).
    pub reg: [MetricsSnapshot; 2],
    /// `[hits, misses, evictions]` from `Database::pool()` around the
    /// whole phase, if embedded.
    pub pool: Option<[u64; 3]>,
    /// Allocations and bytes, counted in the traced blocks only.
    pub allocs: (u64, u64),
    pub heap_scan_ms: Option<f64>,
    pub ping_us: Option<f64>,
    pub tracers: Vec<Tracer>,
}

type Res<T> = std::result::Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Checkpoint time so far, from the registry.
fn checkpoint_ns(db: &Database) -> u64 {
    db.metrics_snapshot()
        .histogram("checkpoint.duration_ns")
        .map_or(0, |h| h.sum)
}

struct Loaded {
    db: Database,
    copy_secs: f64,
    copy_ckpt_ns: u64,
}

/// Create a durable database with the default options (`Durability::Full`,
/// a checkpoint every 1,024 commits, a 1,024-page pool) and load it
/// through SQL only.
fn load(dir: &Path, inputs: &Path, m: &Model) -> Res<Loaded> {
    let mut db = Database::create(dir).map_err(err)?;
    let run =
        |db: &mut Database, sql: &str| db.execute(sql).map_err(|e| format!("set-up `{sql}`: {e}"));
    run(
        &mut db,
        "CREATE TABLE Gene (GID TEXT, GName TEXT, Len INT, Bucket INT, Seq TEXT)",
    )?;
    run(&mut db, "CREATE ANNOTATION TABLE Curation ON Gene")?;
    run(&mut db, "CREATE INDEX len_idx ON Gene (Len)")?;
    let ck0 = checkpoint_ns(&db);
    let t = Instant::now();
    let copied = run(
        &mut db,
        &format!(
            "COPY Gene FROM '{}' FORMAT TSV",
            inputs.join("genes.tsv").display()
        ),
    )?;
    let copy_secs = t.elapsed().as_secs_f64();
    let copy_ckpt_ns = checkpoint_ns(&db) - ck0;
    if copied.affected != m.sizes.genes {
        return Err(format!(
            "COPY loaded {} genes, want {}",
            copied.affected, m.sizes.genes
        ));
    }
    run(
        &mut db,
        &format!(
            "ADD ANNOTATION TO Gene.Curation VALUE '{}' ON (SELECT G.GName FROM Gene G)",
            m.note
        ),
    )?;
    run(&mut db, "CREATE TABLE Tag (Len INT, TName TEXT)")?;
    run(
        &mut db,
        &format!(
            "COPY Tag FROM '{}' FORMAT TSV",
            inputs.join("tags.tsv").display()
        ),
    )?;
    run(&mut db, "CREATE TABLE Prot (Hdr TEXT, SS TEXT)")?;
    run(
        &mut db,
        "CREATE SEQUENCE INDEX ss_sbc ON Prot (SS) USING SBC",
    )?;
    run(
        &mut db,
        &format!(
            "COPY Prot FROM '{}' FORMAT FASTA",
            inputs.join("prot.fa").display()
        ),
    )?;
    // a small side table for the battery's commits, so they dirty (and
    // pin) a few pages rather than a random page of `Gene` each
    run(&mut db, "CREATE TABLE Note (K INT, V TEXT)")?;
    run(&mut db, "CREATE INDEX note_k ON Note (K)")?;
    let rows: Vec<String> = (0..NOTES).map(|k| format!("({k}, 'n')")).collect();
    run(
        &mut db,
        &format!("INSERT INTO Note VALUES {}", rows.join(", ")),
    )?;
    db.checkpoint().map_err(err)?;
    Ok(Loaded {
        db,
        copy_secs,
        copy_ckpt_ns,
    })
}

/// Fail loudly if a workload left its side of the cache boundary.
fn check_fit(kind: Kind, pages: u64) -> Res<()> {
    let pool = DurabilityOptions::default().pool_pages as u64;
    match kind {
        Kind::Browse | Kind::Curate if pages > pool => Err(format!(
            "browse and curate must fit in the buffer pool: {pages} pages > {pool}"
        )),
        Kind::AnalyzeCold if pages < 3 * pool => Err(format!(
            "analyze-cold must be at least 3x the buffer pool: {pages} pages < {}",
            3 * pool
        )),
        _ => Ok(()),
    }
}

enum Stop {
    Count(u64),
    Until(Instant),
}

/// Closed loop: the next operation starts when the previous one returns.
/// A deadline is only checked every `align` operations, so a run ends on
/// a whole round.
fn drive(
    c: &mut Client<'_>,
    m: &Model,
    s: &mut State,
    gen: &mut dyn FnMut() -> Op,
    stop: Stop,
    align: u64,
) -> (u64, f64) {
    let t0 = Instant::now();
    let mut ops = 0;
    loop {
        let done = match stop {
            Stop::Count(n) => ops >= n,
            Stop::Until(t) => ops % align == 0 && Instant::now() >= t,
        };
        if done {
            break;
        }
        c.run(m, s, gen());
        ops += 1;
    }
    (ops, t0.elapsed().as_secs_f64())
}

fn browse_op(rng: &mut Rng, m: &Model) -> Op {
    let n = m.sizes.genes as u64;
    let k = rng.below(n) as i64;
    match rng.below(100) {
        0..=49 => Op::Point(k),
        50..=69 => Op::Adhoc(k),
        70..=79 => Op::Range(rng.below(n - n / 100) as i64),
        80..=89 => Op::Annot(k),
        _ => Op::Seq(rng.below(m.patterns.len() as u64) as usize),
    }
}

fn analyze_op(rng: &mut Rng, m: &Model, i: u64) -> Op {
    if i.is_multiple_of(ROUND) {
        [Op::Scan, Op::Filter, Op::Join][(i / ROUND % 3) as usize]
    } else {
        Op::Point(rng.below(m.sizes.genes as u64) as i64)
    }
}

/// 80% of keys fall in a hot fifth of `Len` starting at `hot` (a gene
/// family); the rest are uniform.
fn skewed_key(rng: &mut Rng, n: u64, hot: u64) -> u64 {
    if rng.below(10) < 8 {
        (hot + rng.below(n / 5)) % n
    } else {
        rng.below(n)
    }
}

/// Client `c` only touches keys of its own parity, so its model is exact.
fn curate_op(rng: &mut Rng, m: &Model, c: i64, hot: u64) -> Op {
    let n = m.sizes.genes as u64;
    let k = skewed_key(rng, n, hot);
    let k = ((k & !1) as i64 | c).min(n as i64 - 2 + c);
    match rng.below(100) {
        0..=49 => Op::Point(k),
        50..=84 => Op::Update(k),
        85..=94 => Op::Insert,
        _ => Op::Note(k),
    }
}

/// Battery keys follow the workload's own key distribution: uniform, or
/// skewed to the hot family for `curate`.
fn battery_op(rng: &mut Rng, m: &Model, class: Class, hot: Option<u64>) -> Op {
    let n = m.sizes.genes as u64;
    let mut key = |span: u64| match hot {
        Some(h) => skewed_key(rng, n, h).min(span - 1),
        None => rng.below(span),
    };
    let k = key(n) as i64;
    match class {
        Class::Adhoc => Op::Adhoc(k),
        Class::Range => Op::Range(key(n - n / 100) as i64),
        Class::Annot => Op::Annot(k),
        Class::Seq => Op::Seq(rng.below(m.patterns.len() as u64) as usize),
        Class::Scan => Op::Scan,
        Class::Commit => Op::Touch(rng.below(NOTES as u64) as i64),
        Class::Point | Class::Filter | Class::Join => Op::Point(k),
    }
}

/// One slice of the battery: `1 / SEGMENTS` of each missing class.
fn battery_slice(
    c: &mut Client<'_>,
    m: &Model,
    s: &mut State,
    rng: &mut Rng,
    kind: Kind,
    hot: Option<u64>,
) {
    for (class, n) in BATTERY {
        if !kind.mix().contains(&class) {
            for _ in 0..n / SEGMENTS {
                let op = battery_op(rng, m, class, hot);
                c.run(m, s, op);
            }
        }
    }
}

fn from_battery(kind: Kind, trace: bool) -> Vec<bool> {
    let mut from = vec![false; CLASSES];
    for (class, _) in BATTERY {
        from[class as usize] = !trace && !kind.mix().contains(&class);
    }
    from
}

fn dir_bytes(p: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(p) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(md) if md.is_dir() => dir_bytes(&e.path()),
            Ok(md) => md.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Run one workload in `work` (a work directory it owns).
pub fn run(a: &Args, work: &Path) -> Res<Outcome> {
    let m = Model::new(a.seed, a.kind.sizes());
    let inputs = work.join("inputs");
    std::fs::create_dir_all(&inputs).map_err(err)?;
    m.write_inputs(&inputs).map_err(err)?;
    match a.kind {
        Kind::Browse | Kind::AnalyzeCold => run_embedded(a, &m, work, &inputs),
        Kind::Curate => run_served(a, &m, work, &inputs),
    }
}

struct Setups {
    setup_s: Vec<f64>,
    copy_rows_per_s: Vec<f64>,
    copy_ckpt_ns: Vec<u64>,
    pages: u64,
}

impl Setups {
    fn new() -> Setups {
        Setups {
            setup_s: Vec::new(),
            copy_rows_per_s: Vec::new(),
            copy_ckpt_ns: Vec::new(),
            pages: 0,
        }
    }

    fn note(&mut self, t: Instant, copy_secs: f64, copy_ckpt_ns: u64, m: &Model) {
        self.setup_s.push(t.elapsed().as_secs_f64());
        self.copy_rows_per_s.push(m.sizes.genes as f64 / copy_secs);
        self.copy_ckpt_ns.push(copy_ckpt_ns);
    }

    fn copy_ckpt_ms(&self) -> f64 {
        let mut v = self.copy_ckpt_ns.clone();
        v.sort_unstable();
        v[v.len() / 2] as f64 / 1e6
    }
}

fn run_embedded(a: &Args, m: &Model, work: &Path, inputs: &Path) -> Res<Outcome> {
    let mut setups = Setups::new();
    let mut kept: Option<(Database, PathBuf)> = None;
    for i in 0..a.kind.setups() {
        if let Some((db, dir)) = kept.take() {
            db.close().map_err(err)?;
            std::fs::remove_dir_all(&dir).map_err(err)?;
        }
        let dir = work.join(format!("db{i}"));
        let t = Instant::now();
        let l = load(&dir, inputs, m)?;
        let pages = l.db.pool().num_pages();
        check_fit(a.kind, pages)?;
        setups.note(t, l.copy_secs, l.copy_ckpt_ns, m);
        setups.pages = pages;
        kept = Some((l.db, dir));
    }
    let (mut db, dir) = kept.expect("at least one set-up");

    let epoch = Instant::now();
    let mut session = db.session("admin");
    let cap = if a.trace {
        16 * a.kind.traced_ops() as usize
    } else {
        0
    };
    let tracer = Tracer::new(a.trace, epoch, 0, cap);
    let mut c = Client::new(&mut session, 0, tracer).map_err(err)?;
    let mut s = State::default();
    let mut rng = Rng::new(a.seed ^ 0x0b5e);
    let mut i = 0u64;
    let kind = a.kind;
    let mut gen = || {
        let op = match kind {
            Kind::Browse => browse_op(&mut rng, m),
            _ => analyze_op(&mut rng, m, i),
        };
        i += 1;
        op
    };
    let deadline = epoch + Duration::from_secs(a.seconds);
    let align = if kind == Kind::AnalyzeCold { ROUND } else { 1 };

    let mut traced = None;
    if a.trace {
        let block = kind.traced_ops() / TRACE_BLOCKS;
        let reg0 = c.conn().metrics().map_err(err)?;
        let pool0 = c.pool_counts();
        let a0 = alloc_counts();
        let (mut t, mut u) = ((0, 0.0), (0, 0.0));
        for _ in 0..TRACE_BLOCKS {
            c.tr.set_on(true);
            c.count_allocs = true;
            let (o, secs) = drive(&mut c, m, &mut s, &mut gen, Stop::Count(block), align);
            t = (t.0 + o, t.1 + secs);
            c.tr.set_on(false);
            c.count_allocs = false;
            let (o, secs) = drive(&mut c, m, &mut s, &mut gen, Stop::Count(block), align);
            u = (u.0 + o, u.1 + secs);
        }
        let a1 = alloc_counts();
        let pool1 = c.pool_counts();
        let reg1 = c.conn().metrics().map_err(err)?;
        let heap_scan_ms = c.conn().local_database().and_then(|db| {
            let t = Instant::now();
            let rows = db.catalog().table("Gene").ok()?.scan().ok()?;
            (rows.len() >= m.sizes.genes).then(|| t.elapsed().as_secs_f64() * 1e3)
        });
        // idle out the run: more ops would measure nothing
        std::thread::sleep(deadline.saturating_duration_since(Instant::now()));
        let pool = match (pool0, pool1) {
            (Some(b), Some(a)) => Some([a[0] - b[0], a[1] - b[1], a[2] - b[2]]),
            _ => None,
        };
        traced = Some(Traced {
            layers: std::mem::take(&mut c.layers),
            embedded: true,
            traced: t,
            untraced: u,
            reg: [reg0, reg1],
            pool,
            allocs: (a1.0 - a0.0, a1.1 - a0.1),
            heap_scan_ms,
            ping_us: None,
            tracers: Vec::new(),
        });
    }
    let mut segments = Vec::new();
    if !a.trace {
        let mut battery_rng = Rng::new(a.seed ^ 0xba77);
        let segment = Duration::from_secs(a.seconds) / SEGMENTS;
        for seg in 0..SEGMENTS {
            c.seg = seg;
            let until = Instant::now() + segment;
            segments.push(drive(
                &mut c,
                m,
                &mut s,
                &mut gen,
                Stop::Until(until),
                align,
            ));
            battery_slice(&mut c, m, &mut s, &mut battery_rng, kind, None);
        }
    }
    let out = c.finish();
    drop(session);
    db.close().map_err(err)?;
    if let Some(t) = traced.as_mut() {
        t.tracers.push(out.tr);
    }
    Ok(Outcome {
        copy_ckpt_ms: setups.copy_ckpt_ms(),
        setup_s: setups.setup_s,
        copy_rows_per_s: setups.copy_rows_per_s,
        pages: (setups.pages, setups.pages),
        segments,
        lat: out.lat,
        from_battery: from_battery(kind, a.trace),
        attempted: out.attempted,
        failed: out.failed,
        errors: out.errors,
        disk_bytes: dir_bytes(&dir),
        traced,
    })
}

/// Mean round trip of the protocol's `Ping`, on a raw socket.
fn ping_us(addr: &str, n: usize) -> Res<f64> {
    let mut sock = TcpStream::connect(addr).map_err(err)?;
    sock.set_nodelay(true).map_err(err)?;
    let mut roundtrip = |req: &Request| -> Res<Response> {
        let mut buf = Vec::new();
        write_request(&mut buf, req).map_err(err)?;
        std::io::Write::write_all(&mut sock, &buf).map_err(err)?;
        read_response(&mut sock).map_err(err)
    };
    roundtrip(&Request::Hello {
        user: "admin".into(),
    })?;
    let t = Instant::now();
    for _ in 0..n {
        match roundtrip(&Request::Ping)? {
            Response::Pong => {}
            other => return Err(format!("ping answered with {other:?}")),
        }
    }
    let us = t.elapsed().as_secs_f64() * 1e6 / n as f64;
    let mut buf = Vec::new();
    write_request(&mut buf, &Request::Quit).map_err(err)?;
    let _ = std::io::Write::write_all(&mut sock, &buf);
    Ok(us)
}

/// What one `curate` client thread hands back.
struct ClientOut {
    out: crate::ops::Finished,
    segments: Vec<(u64, f64)>,
    /// Ops in the traced and in the untraced blocks.
    block_ops: (u64, u64),
    layers: Layers,
    /// Client 0 only.
    phase: Option<Phase>,
}

/// `curate`'s traced phase as client 0 saw it.
struct Phase {
    /// Registry around the whole phase.
    reg: [MetricsSnapshot; 2],
    traced_secs: f64,
    untraced_secs: f64,
    /// Process-wide allocations and bytes in the traced blocks.
    allocs: (u64, u64),
}

fn run_served(a: &Args, m: &Model, work: &Path, inputs: &Path) -> Res<Outcome> {
    let mut setups = Setups::new();
    let mut kept: Option<(Server, PathBuf)> = None;
    for i in 0..a.kind.setups() {
        if let Some((server, dir)) = kept.take() {
            server.stop();
            std::fs::remove_dir_all(&dir).map_err(err)?;
        }
        let dir = work.join(format!("db{i}"));
        let t = Instant::now();
        let l = load(&dir, inputs, m)?;
        setups.pages = l.db.pool().num_pages();
        check_fit(a.kind, setups.pages)?;
        l.db.close().map_err(err)?;
        let server = Server::start(ServerConfig::new(&dir, "127.0.0.1:0")).map_err(err)?;
        setups.note(t, l.copy_secs, l.copy_ckpt_ns, m);
        kept = Some((server, dir));
    }
    let (server, dir) = kept.expect("at least one set-up");
    let addr = server.local_addr().to_string();
    // the server's threads stay on the last CPU; clients get the next one
    if let Some(&c) = a.cpus.iter().rev().nth(1) {
        crate::cpu::pin(c);
    }

    let epoch = Instant::now();
    let deadline = epoch + Duration::from_secs(a.seconds);
    let hot = Rng::new(a.seed ^ 0x407).below(m.sizes.genes as u64);
    let gate = Barrier::new(CURATE_CLIENTS as usize);
    let traced_ops = a.kind.traced_ops();
    // each client's acknowledged writes; client 0 merges them for the
    // battery slices, which run while every client waits at the gate
    let states: Vec<Mutex<State>> = (0..CURATE_CLIENTS).map(|_| Mutex::default()).collect();
    let results: Vec<Res<ClientOut>> = std::thread::scope(|sc| {
        let handles: Vec<_> = (0..CURATE_CLIENTS)
            .map(|id| {
                let (addr, gate, states) = (&addr, &gate, &states);
                sc.spawn(move || -> Res<ClientOut> {
                    let mut conn = RemoteConnection::connect(addr, "admin").map_err(err)?;
                    let cap = if a.trace { 16 * traced_ops as usize } else { 0 };
                    let tracer = Tracer::new(a.trace, epoch, id as u64, cap);
                    let mut c = Client::new(&mut conn, id, tracer).map_err(err)?;
                    let mut rng = Rng::new(a.seed ^ (0xc0 + id as u64));
                    let mut gen = || curate_op(&mut rng, m, id, hot);
                    let mut phase = None;
                    let mut block_ops = (0, 0);
                    let mut segments = Vec::new();
                    if a.trace {
                        let mut s = states[id as usize].lock().expect("client state");
                        let block = traced_ops / TRACE_BLOCKS;
                        let reg0 = c.conn().metrics().map_err(err);
                        let (a0, mut secs) = (alloc_counts(), (0.0, 0.0));
                        for _ in 0..TRACE_BLOCKS {
                            c.tr.set_on(true);
                            if id == 0 {
                                set_counting(true);
                            }
                            gate.wait();
                            let t = Instant::now();
                            block_ops.0 +=
                                drive(&mut c, m, &mut s, &mut gen, Stop::Count(block), 1).0;
                            gate.wait();
                            if id == 0 {
                                secs.0 += t.elapsed().as_secs_f64();
                                set_counting(false);
                            }
                            c.tr.set_on(false);
                            gate.wait();
                            let t = Instant::now();
                            block_ops.1 +=
                                drive(&mut c, m, &mut s, &mut gen, Stop::Count(block), 1).0;
                            gate.wait();
                            secs.1 += t.elapsed().as_secs_f64();
                        }
                        if id == 0 {
                            let a1 = alloc_counts();
                            let reg1 = c.conn().metrics().map_err(err)?;
                            phase = Some(Phase {
                                reg: [reg0?, reg1],
                                traced_secs: secs.0,
                                untraced_secs: secs.1,
                                allocs: (a1.0 - a0.0, a1.1 - a0.1),
                            });
                        }
                        // idle out the run: more writes would measure
                        // nothing and only grow the database
                        std::thread::sleep(deadline.saturating_duration_since(Instant::now()));
                    } else {
                        let mut battery_rng = Rng::new(a.seed ^ 0xba77);
                        let segment = Duration::from_secs(a.seconds) / SEGMENTS;
                        gate.wait();
                        for seg in 0..SEGMENTS {
                            c.seg = seg;
                            let until = Instant::now() + segment;
                            let mut s = states[id as usize].lock().expect("client state");
                            segments.push(drive(
                                &mut c,
                                m,
                                &mut s,
                                &mut gen,
                                Stop::Until(until),
                                1,
                            ));
                            drop(s);
                            gate.wait();
                            if id == 0 {
                                let mut view = State::default();
                                for st in states {
                                    view.merge(st.lock().expect("client state").clone());
                                }
                                battery_slice(
                                    &mut c,
                                    m,
                                    &mut view,
                                    &mut battery_rng,
                                    a.kind,
                                    Some(hot),
                                );
                            }
                            gate.wait();
                        }
                    }
                    let layers = std::mem::take(&mut c.layers);
                    c.verify_writes(m, &mut states[id as usize].lock().expect("client state"));
                    let out = c.finish();
                    conn.close().map_err(err)?;
                    Ok(ClientOut {
                        out,
                        segments,
                        block_ops,
                        layers,
                        phase,
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });

    let mut lat: Samples = vec![Vec::new(); CLASSES];
    let (mut attempted, mut failed, mut errors) = (0, 0, Vec::new());
    let mut segments = vec![(0, 0.0f64); if a.trace { 0 } else { SEGMENTS as usize }];
    let mut tracers = Vec::new();
    let (mut t_ops, mut u_ops) = (0, 0);
    let mut phase = None;
    let mut layers = None;
    for r in results {
        let r = r?;
        for (all, mine) in lat.iter_mut().zip(r.out.lat) {
            all.extend(mine);
        }
        attempted += r.out.attempted;
        failed += r.out.failed;
        errors.extend(r.out.errors);
        // clients share segment boundaries: add their ops, keep the
        // longer clock
        for (all, (o, t)) in segments.iter_mut().zip(r.segments) {
            all.0 += o;
            all.1 = all.1.max(t);
        }
        tracers.push(r.out.tr);
        t_ops += r.block_ops.0;
        u_ops += r.block_ops.1;
        if r.phase.is_some() {
            phase = r.phase;
            layers = Some(r.layers);
        }
    }

    let ping = if a.trace {
        Some(ping_us(&addr, 2_000)?)
    } else {
        None
    };
    server.stop();
    let disk_bytes = dir_bytes(&dir);
    // the run's inserts and annotations grow the database: it must still
    // fit the pool at the end, or the reads were not all hits
    let grown = Database::open(&dir).map_err(err)?;
    let pages = grown.pool().num_pages();
    grown.close().map_err(err)?;
    check_fit(a.kind, pages).map_err(|e| format!("after the run: {e}"))?;

    let traced = match (phase, layers) {
        (Some(p), Some(layers)) => Some(Traced {
            layers,
            embedded: false,
            traced: (t_ops, p.traced_secs),
            untraced: (u_ops, p.untraced_secs),
            reg: p.reg,
            pool: None,
            allocs: p.allocs,
            heap_scan_ms: None,
            ping_us: ping,
            tracers,
        }),
        _ => None,
    };
    Ok(Outcome {
        copy_ckpt_ms: setups.copy_ckpt_ms(),
        setup_s: setups.setup_s,
        copy_rows_per_s: setups.copy_rows_per_s,
        pages: (setups.pages, pages),
        segments,
        lat,
        from_battery: from_battery(a.kind, a.trace),
        attempted,
        failed,
        errors,
        disk_bytes,
        traced,
    })
}
