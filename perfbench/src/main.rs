//! The bdbms benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload browse|analyze-cold|curate --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root.  It writes its generated inputs and
//! databases under `.bench_work/` (removed at exit) and, with
//! `--trace 1`, its spans under `.bench_out/`.  Human-readable lines go
//! first; the last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`.  Any wrong
//! result makes the run exit with code 1; a broken set-up with code 2.
//! See `perfbench/README.md` for the workloads and metrics.

mod cpu;
mod model;
mod ops;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use bdbms_common::metrics::MetricsSnapshot;

use ops::Class;
use workloads::{Args, Kind, Outcome, Traced};

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

fn parse_args(cpus: Vec<usize>) -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut kind = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10u64, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {val}");
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(val).ok_or_else(|| format!("unknown workload {val}"))?)
            }
            "--seed" => seed = val.parse().map_err(bad)?,
            "--seconds" => seconds = val.parse().map_err(bad)?,
            "--trace" => trace = val.parse::<u8>().map_err(bad)? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds: seconds.max(1),
        trace,
        cpus,
    })
}

fn main() {
    let cpus = cpu::allowed();
    let pinned = cpus.last().copied().filter(|&c| cpu::pin(c));
    let args = match parse_args(cpus) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let root = std::env::current_dir().expect("current directory");
    let name = args.kind.name();
    let work = root
        .join(".bench_work")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    let outcome = std::fs::create_dir_all(&work)
        .map_err(|e| e.to_string())
        .and_then(|_| workloads::run(&args, &work));
    let _ = std::fs::remove_dir_all(&work);
    let out = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {name}: {e}");
            std::process::exit(2);
        }
    };
    let metrics = if args.trace {
        let t = out.traced.as_ref().expect("traced run records its phase");
        write_trace(&root, name, args.seed, t);
        layer_metrics(&out, t)
    } else {
        end_to_end(&out)
    };
    println!(
        "workload {name}  seed {}  seconds {}  trace {}  set-ups {}  pages {} -> {}  cpu {}",
        args.seed,
        args.seconds,
        args.trace as u8,
        out.setup_s.len(),
        out.pages.0,
        out.pages.1,
        pinned.map_or("any".to_string(), |c| c.to_string())
    );
    for (name, value, unit, note) in &metrics {
        println!("  {name:<30} {value:>14.4} {unit:<7} {note}");
    }
    let error_rate = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "  {:<30} {error_rate:>14.4} {:<7} {} failed or wrong of {} attempted",
        "error_rate", "ratio", out.failed, out.attempted
    );
    for e in &out.errors {
        println!("  wrong: {e}");
    }
    let correct = out.failed == 0;
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.attempted, out.failed
    );
    let gated = metrics
        .iter()
        .filter(|m| args.trace || !UNGATED.contains(&m.0));
    for (i, (name, value, unit, _)) in gated.enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let v = if value.is_finite() { *value } else { -1.0 };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    println!("{json}");
    std::process::exit(if correct { 0 } else { 1 });
}

type Metric = (&'static str, f64, &'static str, String);

/// Printed but left out of the JSON (and so of the regression gate):
/// tail latencies swing 2–5× between runs on a shared 2-vCPU VM's disk
/// and CPUs, far beyond any bound a gate could hold.
const UNGATED: [&str; 2] = ["point_p99_us", "commit_p99_us"];

/// Nearest-rank quantile of `v` (sorted in place), in `ns`.
fn quantile(v: &mut [u64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1] as f64
}

fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The quicker half of a run's segments, each given with its cost
/// (lower is quicker).  On a shared VM the CPUs slow down for stretches
/// of seconds under other tenants' load, so each timing comes from the
/// quicker half of its own segments: a slower engine slows every segment
/// and shows, while a stall confined to fewer than half the segments is
/// left out (the printed, ungated p99s keep every segment).
fn quicker_half<T>(mut segs: Vec<(f64, T)>) -> Vec<T> {
    segs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let keep = segs.len().div_ceil(2);
    segs.into_iter().take(keep).map(|(_, t)| t).collect()
}

/// One class's samples from the quicker half of the segments it ran
/// in, each segment ranked by that class's own median there; with the
/// number of segments kept and seen.
fn quick_samples(samples: &[(u32, u64)]) -> (Vec<u64>, usize, usize) {
    let mut by_seg: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
    for &(seg, ns) in samples {
        by_seg.entry(seg).or_default().push(ns);
    }
    let seen = by_seg.len();
    let ranked = by_seg
        .into_values()
        .map(|mut v| (quantile(&mut v, 0.5), v))
        .collect();
    let kept = quicker_half(ranked);
    let n = kept.len();
    (kept.into_iter().flatten().collect(), n, seen)
}

fn end_to_end(o: &Outcome) -> Vec<Metric> {
    let from = |class: Class| {
        if o.from_battery[class as usize] {
            "battery"
        } else {
            "loop"
        }
    };
    let p50 = |class: Class, scale: f64| {
        let (mut v, kept, seen) = quick_samples(&o.lat[class as usize]);
        let note = format!(
            "p50 of {} {} samples, quicker {kept} of {seen} segments",
            v.len(),
            from(class)
        );
        (quantile(&mut v, 0.5) / scale, note)
    };
    let p99 = |class: Class| {
        let mut v: Vec<u64> = o.lat[class as usize].iter().map(|s| s.1).collect();
        // at least ten samples beyond the p99
        if v.len() < 1_000 {
            return (f64::NAN, format!("not reported: only {} samples", v.len()));
        }
        let note = format!("p99 of all {} {} samples", v.len(), from(class));
        (quantile(&mut v, 0.99) / 1e3, note)
    };
    let by_speed = o
        .segments
        .iter()
        .map(|&(n, secs)| (-(n as f64) / secs, (n, secs)))
        .collect();
    let quick = quicker_half(by_speed);
    let (ops, secs) = quick
        .iter()
        .fold((0, 0.0), |(n, t), &(n2, t2)| (n + n2, t + t2));
    let (point50, n_point50) = p50(Class::Point, 1e3);
    let (point99, n_point99) = p99(Class::Point);
    let (adhoc, n_adhoc) = p50(Class::Adhoc, 1e3);
    let (range, n_range) = p50(Class::Range, 1e3);
    let (annot, n_annot) = p50(Class::Annot, 1e3);
    let (seq, n_seq) = p50(Class::Seq, 1e3);
    let (scan, n_scan) = p50(Class::Scan, 1e6);
    let (commit50, n_commit50) = p50(Class::Commit, 1e3);
    let (commit99, n_commit99) = p99(Class::Commit);
    vec![
        (
            "setup_s",
            median(&o.setup_s),
            "s",
            format!("median of {} set-ups", o.setup_s.len()),
        ),
        (
            "ops_per_s",
            ops as f64 / secs,
            "ops/s",
            format!(
                "{ops} ops in {secs:.2} s, closed loop, quicker {} of {} segments",
                quick.len(),
                o.segments.len()
            ),
        ),
        ("point_p50_us", point50, "us", n_point50),
        ("point_p99_us", point99, "us", n_point99),
        ("adhoc_p50_us", adhoc, "us", n_adhoc),
        ("range_p50_us", range, "us", n_range),
        ("annot_p50_us", annot, "us", n_annot),
        ("seq_p50_us", seq, "us", n_seq),
        ("scan_p50_ms", scan, "ms", n_scan),
        ("commit_p50_us", commit50, "us", n_commit50),
        ("commit_p99_us", commit99, "us", n_commit99),
        (
            "copy_rows_per_s",
            o.copy_rows_per_s.iter().copied().fold(0.0, f64::max),
            "rows/s",
            "Gene COPY incl. its forced checkpoint, quickest set-up".into(),
        ),
        (
            "rss_peak_mib",
            rss_peak_mib(),
            "MiB",
            "VmHWM of the whole process".into(),
        ),
        (
            "disk_mib",
            o.disk_bytes as f64 / (1024.0 * 1024.0),
            "MiB",
            "database directory after shutdown".into(),
        ),
    ]
}

fn rss_peak_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn counter(reg: &[MetricsSnapshot; 2], name: &str) -> f64 {
    let get = |s: &MetricsSnapshot| s.counter(name).unwrap_or(0) as f64;
    get(&reg[1]) - get(&reg[0])
}

/// `(count, sum)` delta of a registry histogram.
fn histogram(reg: &[MetricsSnapshot; 2], name: &str) -> (f64, f64) {
    let get = |s: &MetricsSnapshot| {
        s.histogram(name)
            .map_or((0.0, 0.0), |h| (h.count as f64, h.sum as f64))
    };
    let (a, b) = (get(&reg[0]), get(&reg[1]));
    (b.0 - a.0, b.1 - a.1)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Per-layer metrics of the traced prefix.  `-1` marks a layer the
/// workload exercises but cannot observe from its client (the wire
/// hides the server's `Database`); `0` means the layer did no work.
fn layer_metrics(o: &Outcome, t: &Traced) -> Vec<Metric> {
    let l = &t.layers;
    let ops = t.traced.0 as f64;
    let spans = trace::self_times(&t.tracers);
    // `(mean µs, calls)` of one span name over the traced blocks
    let span = |name: &str| match spans.get(name) {
        Some(&(n, total, _)) => (total as f64 / n as f64 / 1e3, n),
        None => (0.0, 0),
    };
    let (parse_us, n_parse) = span("parser.parse");
    let (prepare_us, n_prepare) = span("session.prepare");
    let (open_us, n_open) = span("conn.query");
    let (fetch_us, n_fetch) = span("conn.fetch");
    let (probe_us, n_probe) = span("index.probe");
    let (get_us, n_get) = span("heap.get");
    let (seq_us, n_seq) = span("seq.probe");
    // median of the run's filters and joins, which the loop times anyway
    let p50_ms = |class: Class| {
        let mut v: Vec<u64> = o.lat[class as usize].iter().map(|s| s.1).collect();
        let n = v.len();
        (
            if n == 0 {
                0.0
            } else {
                quantile(&mut v, 0.5) / 1e6
            },
            n,
        )
    };
    let (filter_ms, n_filter) = p50_ms(Class::Filter);
    let (join_ms, n_join) = p50_ms(Class::Join);
    // pool and registry deltas span the traced and the untraced blocks
    let (span_ops, span_secs) = (
        (t.traced.0 + t.untraced.0) as f64,
        t.traced.1 + t.untraced.1,
    );
    let local = |v: f64| if t.embedded { v } else { -1.0 };
    let reg = &t.reg;
    let commits = counter(reg, "txn.commits");
    let (fsyncs, fsync_ns) = histogram(reg, "wal.fsync_latency_ns");
    let (groups, grouped) = histogram(reg, "group.sizes");
    let (ckpts, ckpt_ns) = histogram(reg, "checkpoint.duration_ns");
    let (stmts, stmt_ns) = histogram(reg, "session.statement_latency_ns");
    let hits = counter(reg, "plan_cache.hits");
    let misses = counter(reg, "plan_cache.misses");
    let (pool, drift) = match t.pool {
        Some(p) => {
            let p = [
                (p[0] - l.excluded[0]) as f64,
                (p[1] - l.excluded[1]) as f64,
                (p[2] - l.excluded[2]) as f64,
            ];
            (p, p[1] - counter(reg, "buffer.misses"))
        }
        None => ([-1.0; 3], -1.0),
    };
    let per_op = |v: f64| if v < 0.0 { v } else { ratio(v, span_ops) };
    let traced_ops_per_s = ratio(ops, t.traced.1);
    let untraced_ops_per_s = ratio(t.untraced.0 as f64, t.untraced.1);
    let note = |s: &str| s.to_string();
    vec![
        (
            "parser.parse_us",
            parse_us,
            "us",
            format!("{n_parse} calls of parser::parse"),
        ),
        (
            "session.prepare_us",
            local(prepare_us),
            "us",
            format!("{n_prepare} Session::prepare"),
        ),
        (
            "session.open_us",
            local(open_us),
            "us",
            format!("{n_open} Session::query"),
        ),
        (
            "plan_cache.hit_ratio",
            ratio(hits, hits + misses),
            "ratio",
            note("registry plan_cache.hits / (hits + misses)"),
        ),
        (
            "executor.plan_us",
            local(l.plan.mean_us()),
            "us",
            format!("ExecStats.plan_ns over {} results", l.plan.n),
        ),
        (
            "executor.exec_us",
            local(l.exec.mean_us()),
            "us",
            note("ExecStats.exec_ns"),
        ),
        (
            "cursor.fetch_us",
            local(fetch_us),
            "us",
            format!("{n_fetch} cursor drains via RowCursor::next_row"),
        ),
        (
            "executor.rows_fetched_per_op",
            local(ratio(l.rows_fetched as f64, l.stats_ops as f64)),
            "count",
            note("ExecStats.rows_fetched"),
        ),
        (
            "executor.filter_scan_ms",
            filter_ms,
            "ms",
            format!("median of the run's {n_filter} Len % 10 = 3 filters"),
        ),
        (
            "executor.join_ms",
            join_ms,
            "ms",
            format!("median of the run's {n_join} Tag-Gene joins"),
        ),
        (
            "alloc.count_per_op",
            ratio(t.allocs.0 as f64, ops),
            "count",
            note(if t.embedded {
                "engine calls only"
            } else {
                "whole process, both clients and the server"
            }),
        ),
        (
            "alloc.bytes_per_op",
            ratio(t.allocs.1 as f64, ops),
            "bytes",
            note("bytes requested"),
        ),
        (
            "executor.anns_attached_per_op",
            local(ratio(l.anns_attached as f64, l.stats_ops as f64)),
            "count",
            note("ExecStats.anns_attached"),
        ),
        (
            "index.probe_us",
            local(probe_us),
            "us",
            format!("{n_probe} TableIndex::probe"),
        ),
        (
            "seq.probe_us",
            local(seq_us),
            "us",
            format!("{n_seq} SeqIndex::probe"),
        ),
        (
            "seq.candidates_per_op",
            local(ratio(l.seq_candidates as f64, n_seq as f64)),
            "count",
            note("rows per SBC-tree probe"),
        ),
        (
            "buffer.hit_ratio",
            if t.embedded {
                ratio(pool[0], pool[0] + pool[1])
            } else {
                -1.0
            },
            "ratio",
            note("Database::pool() counters"),
        ),
        (
            "buffer.misses_per_op",
            per_op(pool[1]),
            "count",
            format!("{} misses", pool[1]),
        ),
        (
            "buffer.misses_per_point",
            local(ratio(l.point_misses as f64, l.point_ops as f64)),
            "count",
            format!("{} point lookups", l.point_ops),
        ),
        (
            "buffer.evictions_per_op",
            per_op(pool[2]),
            "count",
            note("Database::pool() counters"),
        ),
        (
            "buffer.registry_drift",
            drift,
            "count",
            note("pool misses the registry's buffer.misses did not see"),
        ),
        (
            "heap.get_us",
            local(get_us),
            "us",
            format!("{n_get} Table::get"),
        ),
        (
            "heap.scan_ms",
            t.heap_scan_ms.unwrap_or(-1.0),
            "ms",
            note("one Table::scan of Gene"),
        ),
        (
            "wal.fsyncs_per_commit",
            ratio(fsyncs, commits),
            "count",
            format!("{commits} commits"),
        ),
        (
            "wal.appends_per_commit",
            ratio(counter(reg, "wal.appends"), commits),
            "count",
            note("registry wal.appends"),
        ),
        (
            "wal.fsync_mean_us",
            ratio(fsync_ns, fsyncs) / 1e3,
            "us",
            format!("{fsyncs} fsyncs"),
        ),
        (
            "group.commits_per_fsync",
            ratio(grouped, groups),
            "count",
            note("registry group.sizes"),
        ),
        (
            "checkpoint.count",
            ckpts,
            "count",
            note("during the traced and untraced blocks"),
        ),
        (
            "checkpoint.mean_ms",
            ratio(ckpt_ns, ckpts) / 1e6,
            "ms",
            note("registry checkpoint.duration_ns"),
        ),
        (
            "checkpoint.busy_share",
            ratio(ckpt_ns / 1e9, span_secs),
            "ratio",
            note("checkpoint time / blocks' time"),
        ),
        (
            "ingest.copy_checkpoint_ms",
            o.copy_ckpt_ms,
            "ms",
            note("checkpoint time inside the Gene COPY"),
        ),
        (
            "wire.ping_us",
            t.ping_us.unwrap_or(0.0),
            "us",
            note("raw Ping round trip"),
        ),
        (
            "server.statement_mean_us",
            ratio(stmt_ns, stmts) / 1e3,
            "us",
            format!("{stmts} statements, registry session.statement_latency_ns"),
        ),
        (
            "trace.ops_per_s",
            traced_ops_per_s,
            "ops/s",
            format!("{ops} ops in traced blocks"),
        ),
        (
            "trace.overhead",
            1.0 - ratio(traced_ops_per_s, untraced_ops_per_s),
            "ratio",
            format!("vs {untraced_ops_per_s:.0} ops/s in untraced blocks"),
        ),
    ]
}

fn write_trace(root: &Path, name: &str, seed: u64, t: &Traced) {
    let dir = root.join(".bench_out");
    let path = dir.join(format!("spans-{name}-seed{seed}.tsv"));
    let written = std::fs::create_dir_all(&dir).and_then(|_| trace::write_spans(&path, &t.tracers));
    match written {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: writing spans: {e}"),
    }
    let dropped: u64 = t.tracers.iter().map(|t| t.dropped).sum();
    println!("self time per span (count, total ms, self ms); {dropped} spans dropped:");
    for (name, (n, total, own)) in trace::self_times(&t.tracers) {
        println!(
            "  {name:<20} {n:>8} {:>10.3} {:>10.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
}
