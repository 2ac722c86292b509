//! Differential property suite: the executor against an independent
//! reference evaluator.
//!
//! Every generated query is a small [`Query`] model that renders to SQL
//! *and* is evaluated here in plain Rust: materialize the FROM tables,
//! take their cross product, filter, project or group, then DISTINCT /
//! FILTER / ORDER BY / LIMIT — no planner, no indexes, no batches.  The
//! engine runs the SQL three ways (all optimizations,
//! `ExecOptions::naive`, and a session cursor) and each answer must match
//! the reference: column names, values, the annotations on every output
//! cell (§3.4 propagation), or the error code.  A planner bug — a
//! conjunct pushed to the wrong source, a wrong index bound, a lost join
//! match — fails here as surely as an operator bug.
//!
//! Rows are compared in order under ORDER BY (every generated ORDER BY
//! key is unique in its output) and as multisets otherwise; a LIMIT
//! without ORDER BY must return `min(k, n)` rows drawn from the
//! reference's unlimited answer.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};

use bdbms_common::{ErrorCode, Value};
use bdbms_core::executor::ExecOptions;
use bdbms_core::{Database, QueryResult};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Fixture: Rust data, loaded through SQL
// ---------------------------------------------------------------------------

const GENE_COLS: &[&str] = &["GID", "GName", "Len", "Bucket"];
const TAG_COLS: &[&str] = &["TLen", "TName"];
const GENES: i64 = 300;
const TAGS: i64 = 80;

fn gene_row(r: i64) -> Vec<Value> {
    vec![
        Value::Text(format!("JW{r:04}")),
        Value::Text(format!("g{}", r % 7)),
        Value::Int(r),
        Value::Int(r % 5),
    ]
}

fn tag_row(r: i64) -> Vec<Value> {
    vec![Value::Int(r * 3 % 50), Value::Text(format!("t{r}"))]
}

/// One `ADD ANNOTATION` into `Gene.Curation`: a single annotation record
/// whose text sits on columns `cols` of every row `on` selects.  The
/// same selection is written twice — as SQL for loading, and in Rust
/// (over the row number, which equals `Len`) for the reference.
struct FixtureAnn {
    text: &'static str,
    cols: &'static [usize],
    sql_where: &'static str,
    on: fn(i64) -> bool,
}

const ANNS: &[FixtureAnn] = &[
    FixtureAnn {
        text: "curated by lab",
        cols: &[0],
        sql_where: "Len < 40",
        on: |r| r < 40,
    },
    FixtureAnn {
        text: "from GenoBase",
        cols: &[2],
        sql_where: "Bucket = 2",
        on: |r| r % 5 == 2,
    },
    // lets DISTINCT GName merge annotated and unannotated rows
    FixtureAnn {
        text: "symbol reviewed",
        cols: &[1],
        sql_where: "Len % 11 = 0",
        on: |r| r % 11 == 0,
    },
    // one record on two cells of a row: `Len + Bucket` must carry it once
    FixtureAnn {
        text: "length checked",
        cols: &[2, 3],
        sql_where: "Len >= 250",
        on: |r| r >= 250,
    },
];

fn ann_text(a: usize) -> String {
    format!("Gene.Curation: {}", ANNS[a].text)
}

struct Fixture {
    db: Database,
    gene: Vec<Vec<Value>>,
    tag: Vec<Vec<Value>>,
    /// `gene_anns[row][col]`: indexes into [`ANNS`] on that cell.
    gene_anns: Vec<Vec<Vec<usize>>>,
}

impl Fixture {
    fn load() -> Fixture {
        let gene: Vec<Vec<Value>> = (0..GENES).map(gene_row).collect();
        let tag: Vec<Vec<Value>> = (0..TAGS).map(tag_row).collect();
        let mut db = Database::new_in_memory();
        let mut run = |sql: &str| {
            db.execute(sql)
                .unwrap_or_else(|e| panic!("fixture: {sql}: {e}"));
        };
        run("CREATE TABLE Gene (GID TEXT, GName TEXT, Len INT, Bucket INT)");
        run(&format!("INSERT INTO Gene VALUES {}", sql_tuples(&gene)));
        run("CREATE INDEX len_idx ON Gene (Len)");
        run("CREATE INDEX bucket_idx ON Gene (Bucket)");
        run("CREATE ANNOTATION TABLE Curation ON Gene");
        let mut gene_anns = vec![vec![Vec::new(); GENE_COLS.len()]; gene.len()];
        for (a, ann) in ANNS.iter().enumerate() {
            let cols: Vec<String> = ann
                .cols
                .iter()
                .map(|&c| format!("G.{}", GENE_COLS[c]))
                .collect();
            run(&format!(
                "ADD ANNOTATION TO Gene.Curation VALUE '{}' ON (SELECT {} FROM Gene G WHERE {})",
                ann.text,
                cols.join(", "),
                ann.sql_where
            ));
            for (r, cells) in gene_anns.iter_mut().enumerate() {
                if (ann.on)(r as i64) {
                    for &c in ann.cols {
                        cells[c].push(a);
                    }
                }
            }
        }
        run("CREATE TABLE Tag (TLen INT, TName TEXT)");
        run(&format!("INSERT INTO Tag VALUES {}", sql_tuples(&tag)));
        Fixture {
            db,
            gene,
            tag,
            gene_anns,
        }
    }
}

fn sql_tuples(rows: &[Vec<Value>]) -> String {
    let lit = |v: &Value| match v {
        Value::Text(s) => format!("'{s}'"),
        other => other.to_string(),
    };
    rows.iter()
        .map(|r| format!("({})", r.iter().map(lit).collect::<Vec<_>>().join(", ")))
        .collect::<Vec<_>>()
        .join(", ")
}

// ---------------------------------------------------------------------------
// Query model: renders to SQL
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq)]
enum Table {
    Gene,
    Tag,
}

impl Table {
    fn name(self) -> &'static str {
        match self {
            Table::Gene => "Gene",
            Table::Tag => "Tag",
        }
    }

    fn cols(self) -> &'static [&'static str] {
        match self {
            Table::Gene => GENE_COLS,
            Table::Tag => TAG_COLS,
        }
    }
}

/// One FROM entry; `annotated` adds `ANNOTATION(Curation)` (Gene only).
#[derive(Clone, Debug)]
struct Src {
    table: Table,
    alias: Option<&'static str>,
    annotated: bool,
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Add,
    Mul,
    Mod,
    Concat,
    Eq,
    Lt,
    Gt,
    Ge,
    And,
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Agg {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

#[derive(Clone, Debug)]
enum Ex {
    Col(Option<&'static str>, &'static str),
    Int(i64),
    Text(&'static str),
    Bin(Box<Ex>, Op, Box<Ex>),
    Like(Box<Ex>, String),
    /// `None` argument = `COUNT(*)`.
    Agg(Agg, Option<Box<Ex>>),
}

#[derive(Clone, Debug)]
struct Item {
    expr: Ex,
    /// PROMOTE sources (plain columns).
    promote: Vec<Ex>,
}

#[derive(Clone, Debug)]
enum AnnPred {
    Contains(&'static str),
    Path(&'static str, &'static str),
}

#[derive(Clone, Debug, Default)]
struct Query {
    distinct: bool,
    items: Vec<Item>,
    from: Vec<Src>,
    /// WHERE conjuncts, joined with AND.
    conds: Vec<Ex>,
    awhere: Option<AnnPred>,
    group_by: Vec<Ex>,
    having: Option<Ex>,
    filter: Option<AnnPred>,
    /// Output column and DESC flag.
    order_by: Option<(&'static str, bool)>,
    limit: Option<usize>,
}

fn col(n: &'static str) -> Ex {
    Ex::Col(None, n)
}

fn qcol(q: &'static str, n: &'static str) -> Ex {
    Ex::Col(Some(q), n)
}

fn int(k: i64) -> Ex {
    Ex::Int(k)
}

fn bin(l: Ex, op: Op, r: Ex) -> Ex {
    Ex::Bin(Box::new(l), op, Box::new(r))
}

fn agg(f: Agg, arg: Option<Ex>) -> Ex {
    Ex::Agg(f, arg.map(Box::new))
}

fn item(expr: Ex) -> Item {
    Item {
        expr,
        promote: Vec::new(),
    }
}

fn items(exprs: Vec<Ex>) -> Vec<Item> {
    exprs.into_iter().map(item).collect()
}

fn gene(annotated: bool) -> Src {
    Src {
        table: Table::Gene,
        alias: None,
        annotated,
    }
}

impl std::fmt::Display for Ex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // nested operators are parenthesized, so no precedence is assumed
        let operand = |e: &Ex| match e {
            Ex::Bin(..) | Ex::Like(..) => format!("({e})"),
            _ => e.to_string(),
        };
        match self {
            Ex::Col(Some(q), n) => write!(f, "{q}.{n}"),
            Ex::Col(None, n) => write!(f, "{n}"),
            Ex::Int(k) => write!(f, "{k}"),
            Ex::Text(s) => write!(f, "'{s}'"),
            Ex::Bin(l, op, r) => {
                let op = match op {
                    Op::Add => "+",
                    Op::Mul => "*",
                    Op::Mod => "%",
                    Op::Concat => "||",
                    Op::Eq => "=",
                    Op::Lt => "<",
                    Op::Gt => ">",
                    Op::Ge => ">=",
                    Op::And => "AND",
                };
                write!(f, "{} {op} {}", operand(l), operand(r))
            }
            Ex::Like(e, pat) => write!(f, "{} LIKE '{pat}'", operand(e)),
            Ex::Agg(func, arg) => {
                let name = format!("{func:?}").to_uppercase();
                match arg {
                    Some(a) => write!(f, "{name}({a})"),
                    None => write!(f, "{name}(*)"),
                }
            }
        }
    }
}

impl std::fmt::Display for AnnPred {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnnPred::Contains(s) => write!(f, "CONTAINS '{s}'"),
            AnnPred::Path(p, v) => write!(f, "PATH '{p}' = '{v}'"),
        }
    }
}

impl Query {
    fn sql(&self) -> String {
        let join = |es: &[Ex]| {
            es.iter()
                .map(|e| e.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        };
        let items: Vec<String> = self
            .items
            .iter()
            .map(|it| {
                if it.promote.is_empty() {
                    it.expr.to_string()
                } else {
                    format!("{} PROMOTE ({})", it.expr, join(&it.promote))
                }
            })
            .collect();
        let from: Vec<String> = self
            .from
            .iter()
            .map(|s| {
                let mut t = s.table.name().to_string();
                if s.annotated {
                    t.push_str(" ANNOTATION(Curation)");
                }
                if let Some(a) = s.alias {
                    t.push_str(&format!(" {a}"));
                }
                t
            })
            .collect();
        let mut sql = format!(
            "SELECT {}{} FROM {}",
            if self.distinct { "DISTINCT " } else { "" },
            items.join(", "),
            from.join(", ")
        );
        if !self.conds.is_empty() {
            let conds: Vec<String> = self.conds.iter().map(|c| c.to_string()).collect();
            sql.push_str(&format!(" WHERE {}", conds.join(" AND ")));
        }
        if let Some(p) = &self.awhere {
            sql.push_str(&format!(" AWHERE {p}"));
        }
        if !self.group_by.is_empty() {
            sql.push_str(&format!(" GROUP BY {}", join(&self.group_by)));
        }
        if let Some(h) = &self.having {
            sql.push_str(&format!(" HAVING {h}"));
        }
        if let Some(p) = &self.filter {
            sql.push_str(&format!(" FILTER {p}"));
        }
        if let Some((c, desc)) = self.order_by {
            sql.push_str(&format!(" ORDER BY {c}{}", if desc { " DESC" } else { "" }));
        }
        if let Some(k) = self.limit {
            sql.push_str(&format!(" LIMIT {k}"));
        }
        sql
    }
}

// ---------------------------------------------------------------------------
// Reference evaluator
// ---------------------------------------------------------------------------

/// A row of the reference's working relation: values plus, per column,
/// the fixture annotations ([`ANNS`] indexes) on that cell.
#[derive(Clone, Default)]
struct RRow {
    vals: Vec<Value>,
    anns: Vec<Vec<usize>>,
}

/// `(qualifier, column)` of each position of the working relation.
type Bindings = Vec<(&'static str, &'static str)>;

/// An output row: values plus each cell's annotation texts, sorted.
type OutRow = (Vec<Value>, Vec<Vec<String>>);

struct Output {
    columns: Vec<String>,
    /// ORDER BY applied, LIMIT not.
    rows: Vec<OutRow>,
}

enum Ctx<'r> {
    Row(&'r RRow),
    Group(&'r [RRow]),
}

fn resolve(b: &Bindings, q: Option<&str>, n: &str) -> Result<usize, ErrorCode> {
    let hits: Vec<usize> = (0..b.len())
        .filter(|&i| {
            b[i].1.eq_ignore_ascii_case(n) && q.is_none_or(|q| b[i].0.eq_ignore_ascii_case(q))
        })
        .collect();
    match hits[..] {
        [i] => Ok(i),
        [] => Err(ErrorCode::NotFound),
        _ => panic!("ambiguous column `{n}`: the generators never emit one"),
    }
}

/// Every column an expression mentions (aggregate arguments included).
fn columns_of(e: &Ex, out: &mut Vec<(Option<&'static str>, &'static str)>) {
    match e {
        Ex::Col(q, n) => out.push((*q, n)),
        Ex::Int(_) | Ex::Text(_) | Ex::Agg(_, None) => {}
        Ex::Bin(l, _, r) => {
            columns_of(l, out);
            columns_of(r, out);
        }
        Ex::Like(e, _) | Ex::Agg(_, Some(e)) => columns_of(e, out),
    }
}

fn has_agg(e: &Ex) -> bool {
    match e {
        Ex::Agg(..) => true,
        Ex::Col(..) | Ex::Int(_) | Ex::Text(_) => false,
        Ex::Bin(l, _, r) => has_agg(l) || has_agg(r),
        Ex::Like(e, _) => has_agg(e),
    }
}

/// SQL LIKE: `%` matches any run, `_` any one character.
fn like(s: &[char], p: &[char]) -> bool {
    match p.split_first() {
        None => s.is_empty(),
        Some(('%', rest)) => (0..=s.len()).any(|i| like(&s[i..], rest)),
        Some((&c, rest)) => s.first().is_some_and(|&x| c == '_' || x == c) && like(&s[1..], rest),
    }
}

fn eval(e: &Ex, b: &Bindings, ctx: &Ctx) -> Result<Value, ErrorCode> {
    match e {
        Ex::Col(q, n) => {
            let i = resolve(b, *q, n)?;
            Ok(match ctx {
                Ctx::Row(r) => r.vals[i].clone(),
                // non-aggregates over a group read its first row (group
                // keys are constant within a group); an empty group reads
                // NULL
                Ctx::Group(g) => g.first().map_or(Value::Null, |r| r.vals[i].clone()),
            })
        }
        Ex::Int(k) => Ok(Value::Int(*k)),
        Ex::Text(s) => Ok(Value::Text(s.to_string())),
        Ex::Like(e, pat) => match eval(e, b, ctx)? {
            Value::Null => Ok(Value::Null),
            Value::Text(s) => {
                let (s, p): (Vec<char>, Vec<char>) = (s.chars().collect(), pat.chars().collect());
                Ok(Value::Bool(like(&s, &p)))
            }
            _ => Err(ErrorCode::Eval),
        },
        Ex::Bin(l, Op::And, r) => {
            let lv = eval(l, b, ctx)?;
            if lv == Value::Bool(false) {
                return Ok(lv);
            }
            match (lv, eval(r, b, ctx)?) {
                (Value::Bool(x), Value::Bool(y)) => Ok(Value::Bool(x && y)),
                (_, Value::Bool(false)) => Ok(Value::Bool(false)),
                (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                _ => Err(ErrorCode::Eval),
            }
        }
        Ex::Bin(l, op, r) => binop(*op, eval(l, b, ctx)?, eval(r, b, ctx)?),
        Ex::Agg(f, arg) => match ctx {
            Ctx::Row(_) => Err(ErrorCode::Eval),
            Ctx::Group(g) => aggregate(*f, arg.as_deref(), b, g),
        },
    }
}

fn binop(op: Op, l: Value, r: Value) -> Result<Value, ErrorCode> {
    use Value::{Bool, Int, Null, Text};
    Ok(match (op, l, r) {
        (_, Null, _) | (_, _, Null) => Null,
        (Op::Add, Int(a), Int(b)) => Int(a + b),
        (Op::Mul, Int(a), Int(b)) => Int(a * b),
        (Op::Mod, Int(a), Int(b)) if b != 0 => Int(a % b),
        (Op::Add | Op::Mul | Op::Mod, _, _) => return Err(ErrorCode::Eval),
        (Op::Concat, a, b) => Text(format!("{a}{b}")),
        (cmp, a, b) => {
            let ord = match (&a, &b) {
                (Int(x), Int(y)) => x.cmp(y),
                (Text(x), Text(y)) => x.cmp(y),
                // values of different types do not compare: unknown
                _ => return Ok(Null),
            };
            Bool(match cmp {
                Op::Eq => ord.is_eq(),
                Op::Lt => ord.is_lt(),
                Op::Gt => ord.is_gt(),
                Op::Ge => ord.is_ge(),
                _ => unreachable!("arithmetic handled above"),
            })
        }
    })
}

fn aggregate(f: Agg, arg: Option<&Ex>, b: &Bindings, group: &[RRow]) -> Result<Value, ErrorCode> {
    let Some(arg) = arg else {
        return Ok(Value::Int(group.len() as i64));
    };
    let mut vals = Vec::new();
    for row in group {
        let v = eval(arg, b, &Ctx::Row(row))?;
        if v != Value::Null {
            vals.push(v);
        }
    }
    if f == Agg::Count {
        return Ok(Value::Int(vals.len() as i64));
    }
    if vals.is_empty() {
        return Ok(Value::Null);
    }
    let ints: Option<Vec<i64>> = vals
        .iter()
        .map(|v| match v {
            Value::Int(i) => Some(*i),
            _ => None,
        })
        .collect();
    // values with no numeric form add nothing to a SUM or AVG; the empty
    // IEEE sum is -0.0
    let float_total = || {
        vals.iter().fold(-0.0, |acc, v| match v {
            Value::Int(i) => acc + *i as f64,
            Value::Float(x) => acc + x,
            _ => acc,
        })
    };
    Ok(match f {
        Agg::Sum => match ints {
            Some(is) => Value::Int(is.iter().sum()),
            None => Value::Float(float_total()),
        },
        Agg::Avg => Value::Float(float_total() / vals.len() as f64),
        Agg::Min => vals.into_iter().min().expect("non-empty"),
        Agg::Max => vals.into_iter().max().expect("non-empty"),
        Agg::Count => unreachable!("handled above"),
    })
}

fn ann_matches(p: &AnnPred, a: usize) -> bool {
    let text = ANNS[a].text;
    match p {
        AnnPred::Contains(s) => text.contains(s),
        // a plain-text annotation is stored as <Annotation>text</Annotation>
        AnnPred::Path(path, v) => *path == "/Annotation" && text == *v,
    }
}

/// The annotation union (by record) of some cells.
fn union<'a>(cells: impl IntoIterator<Item = &'a Vec<usize>>) -> BTreeSet<usize> {
    cells.into_iter().flatten().copied().collect()
}

fn item_name(it: &Item) -> String {
    match &it.expr {
        Ex::Col(_, n) => n.to_string(),
        Ex::Agg(f, _) => format!("{f:?}").to_lowercase(),
        _ => "expr".to_string(),
    }
}

impl Fixture {
    fn materialize(&self, src: &Src) -> Vec<RRow> {
        let (rows, arity) = match src.table {
            Table::Gene => (&self.gene, GENE_COLS.len()),
            Table::Tag => (&self.tag, TAG_COLS.len()),
        };
        rows.iter()
            .enumerate()
            .map(|(r, vals)| RRow {
                vals: vals.clone(),
                anns: if src.annotated {
                    assert_eq!(src.table, Table::Gene, "only Gene carries annotations");
                    self.gene_anns[r].clone()
                } else {
                    vec![Vec::new(); arity]
                },
            })
            .collect()
    }

    /// Evaluate `q` the obvious way.  Errors surface in clause order:
    /// WHERE, unresolvable SELECT items, item evaluation, ORDER BY.
    fn reference(&self, q: &Query) -> Result<Output, ErrorCode> {
        // ---- FROM: cross product of the materialized sources ----
        let mut b: Bindings = Vec::new();
        let mut rows = vec![RRow::default()];
        for src in &q.from {
            let qual = src.alias.unwrap_or(src.table.name());
            b.extend(src.table.cols().iter().map(|&c| (qual, c)));
            let right = self.materialize(src);
            rows = rows
                .iter()
                .flat_map(|l| {
                    right.iter().map(move |r| RRow {
                        vals: [l.vals.clone(), r.vals.clone()].concat(),
                        anns: [l.anns.clone(), r.anns.clone()].concat(),
                    })
                })
                .collect();
        }
        // ---- WHERE, then AWHERE (some annotation of the tuple matches) ----
        let pred = q.conds.iter().cloned().reduce(|l, r| bin(l, Op::And, r));
        if let Some(pred) = &pred {
            let mut kept = Vec::new();
            for row in rows {
                if eval(pred, &b, &Ctx::Row(&row))? == Value::Bool(true) {
                    kept.push(row);
                }
            }
            rows = kept;
        }
        if let Some(p) = &q.awhere {
            rows.retain(|r| r.anns.iter().flatten().any(|&a| ann_matches(p, a)));
        }
        // ---- SELECT items resolve, whatever the rows ----
        let mut item_cols: Vec<Vec<usize>> = Vec::new();
        for it in &q.items {
            let mut refs = Vec::new();
            columns_of(&it.expr, &mut refs);
            for p in &it.promote {
                columns_of(p, &mut refs);
            }
            item_cols.push(
                refs.iter()
                    .map(|&(qual, n)| resolve(&b, qual, n))
                    .collect::<Result<_, _>>()?,
            );
        }
        // ---- projection, or grouping with the union of each group's
        //      annotations (§3.4) ----
        let grouped = !q.group_by.is_empty()
            || q.items.iter().any(|it| has_agg(&it.expr))
            || q.having.as_ref().is_some_and(has_agg);
        let mut out: Vec<(Vec<Value>, Vec<BTreeSet<usize>>)> = Vec::new();
        if grouped {
            let mut groups: Vec<Vec<RRow>> = Vec::new();
            let mut index: HashMap<Vec<Value>, usize> = HashMap::new();
            for row in rows {
                let key = q
                    .group_by
                    .iter()
                    .map(|k| eval(k, &b, &Ctx::Row(&row)))
                    .collect::<Result<Vec<_>, _>>()?;
                let g = *index.entry(key).or_insert_with(|| {
                    groups.push(Vec::new());
                    groups.len() - 1
                });
                groups[g].push(row);
            }
            if groups.is_empty() && q.group_by.is_empty() {
                groups.push(Vec::new());
            }
            for group in &groups {
                if let Some(h) = &q.having {
                    if eval(h, &b, &Ctx::Group(group))? != Value::Bool(true) {
                        continue;
                    }
                }
                let vals = q
                    .items
                    .iter()
                    .map(|it| eval(&it.expr, &b, &Ctx::Group(group)))
                    .collect::<Result<_, _>>()?;
                let anns = item_cols
                    .iter()
                    .map(|cs| union(group.iter().flat_map(|r| cs.iter().map(|&c| &r.anns[c]))))
                    .collect();
                out.push((vals, anns));
            }
        } else {
            assert!(
                q.having.is_none(),
                "the generators never emit HAVING without grouping"
            );
            for row in &rows {
                let vals = q
                    .items
                    .iter()
                    .map(|it| eval(&it.expr, &b, &Ctx::Row(row)))
                    .collect::<Result<_, _>>()?;
                let anns = item_cols
                    .iter()
                    .map(|cs| union(cs.iter().map(|&c| &row.anns[c])))
                    .collect();
                out.push((vals, anns));
            }
        }
        // ---- DISTINCT merges equal tuples, unioning annotations ----
        if q.distinct {
            let mut merged: Vec<(Vec<Value>, Vec<BTreeSet<usize>>)> = Vec::new();
            for (vals, anns) in out {
                match merged.iter_mut().find(|(v, _)| *v == vals) {
                    Some((_, into)) => {
                        for (i, a) in into.iter_mut().zip(anns) {
                            i.extend(a);
                        }
                    }
                    None => merged.push((vals, anns)),
                }
            }
            out = merged;
        }
        // ---- FILTER keeps tuples, drops non-matching annotations ----
        if let Some(p) = &q.filter {
            for (_, anns) in &mut out {
                for cell in anns.iter_mut() {
                    cell.retain(|&a| ann_matches(p, a));
                }
            }
        }
        let columns: Vec<String> = q.items.iter().map(item_name).collect();
        let mut rows: Vec<OutRow> = out
            .into_iter()
            .map(|(vals, anns)| {
                let texts = anns
                    .iter()
                    .map(|cell| cell.iter().map(|&a| ann_text(a)).collect())
                    .collect();
                (vals, texts)
            })
            .collect();
        // ---- ORDER BY names an output column ----
        if let Some((name, desc)) = q.order_by {
            let i = columns
                .iter()
                .position(|c| c.eq_ignore_ascii_case(name))
                .ok_or(ErrorCode::NotFound)?;
            rows.sort_by(|x, y| {
                let ord = x.0[i].cmp(&y.0[i]);
                if desc {
                    ord.reverse()
                } else {
                    ord
                }
            });
            let keys: BTreeSet<&Value> = rows.iter().map(|r| &r.0[i]).collect();
            assert_eq!(
                keys.len(),
                rows.len(),
                "ORDER BY keys must be unique to compare in order"
            );
        }
        Ok(Output { columns, rows })
    }
}

// ---------------------------------------------------------------------------
// Comparison
// ---------------------------------------------------------------------------

fn out_rows(qr: &QueryResult) -> Vec<OutRow> {
    qr.rows
        .iter()
        .map(|r| {
            let anns = r
                .anns
                .iter()
                .map(|cell| {
                    let mut t: Vec<String> = cell
                        .iter()
                        .map(|a| format!("{}.{}: {}", a.source_table, a.ann_table, a.raw))
                        .collect();
                    t.sort();
                    t
                })
                .collect();
            (r.values.clone(), anns)
        })
        .collect()
}

fn compare(
    q: &Query,
    sql: &str,
    leg: &str,
    got: bdbms_common::Result<QueryResult>,
    want: &Result<Output, ErrorCode>,
) {
    let (mut got, want) = match (got, want) {
        (Err(e), Err(code)) => {
            assert_eq!(e.code(), *code, "{leg}: error code for {sql}: {e}");
            return;
        }
        (Err(e), Ok(_)) => panic!("{leg}: engine failed, reference succeeded for {sql}: {e}"),
        (Ok(_), Err(code)) => {
            panic!("{leg}: engine succeeded, reference failed ({code:?}) for {sql}")
        }
        (Ok(got), Ok(want)) => {
            assert_eq!(got.columns, want.columns, "{leg}: columns for {sql}");
            (out_rows(&got), want)
        }
    };
    let n = want.rows.len();
    match (q.order_by.is_some(), q.limit) {
        (true, k) => {
            let k = k.unwrap_or(n).min(n);
            assert_eq!(got, want.rows[..k], "{leg}: ordered rows for {sql}");
        }
        (false, None) => {
            let mut want = want.rows.clone();
            got.sort();
            want.sort();
            assert_eq!(got, want, "{leg}: rows (as a multiset) for {sql}");
        }
        (false, Some(k)) => {
            assert_eq!(got.len(), k.min(n), "{leg}: LIMIT {k} row count for {sql}");
            let mut pool: BTreeMap<&OutRow, usize> = BTreeMap::new();
            for r in &want.rows {
                *pool.entry(r).or_default() += 1;
            }
            for r in &got {
                let left = pool.get_mut(r).filter(|c| **c > 0).unwrap_or_else(|| {
                    panic!("{leg}: row {r:?} is not in the reference for {sql}")
                });
                *left -= 1;
            }
        }
    }
}

thread_local! {
    /// One fixture per test thread: every query is read-only.
    static FIXTURE: RefCell<Fixture> = RefCell::new(Fixture::load());
}

/// Run `q` through the engine three ways and check each against the
/// reference.
fn check(q: &Query) {
    FIXTURE.with(|fx| {
        let fx = &mut *fx.borrow_mut();
        let sql = q.sql();
        let want = fx.reference(q);
        for (leg, opts) in [
            ("default", ExecOptions::default()),
            ("naive", ExecOptions::naive()),
        ] {
            let got = fx.db.query_traced(&sql, &opts).map(|(r, _)| r);
            compare(q, &sql, leg, got, &want);
        }
        let session = fx.db.session("admin");
        let got = session
            .prepare(&sql)
            .and_then(|stmt| session.query(&stmt, &[])?.into_result());
        compare(q, &sql, "session cursor", got, &want);
    });
}

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

fn arb_where() -> impl Strategy<Value = Vec<Ex>> {
    prop_oneof![
        Just(Vec::new()),
        (0i64..310).prop_map(|k| vec![bin(col("Len"), Op::Eq, int(k))]),
        (0i64..300, 1i64..40).prop_map(|(k, w)| vec![
            bin(col("Len"), Op::Ge, int(k)),
            bin(col("Len"), Op::Lt, int(k + w)),
        ]),
        (0i64..5).prop_map(|k| vec![bin(col("Bucket"), Op::Eq, int(k))]),
        (1i64..9, 0i64..9).prop_map(|(m, r)| vec![bin(
            bin(col("Len"), Op::Mod, int(m)),
            Op::Eq,
            int(r)
        )]),
        (0i64..10).prop_map(|d| vec![Ex::Like(Box::new(col("GID")), format!("JW%{d}"))]),
        (0i64..5, 0i64..150).prop_map(|(b, k)| vec![
            bin(col("Bucket"), Op::Eq, int(b)),
            bin(col("Len"), Op::Gt, int(k)),
        ]),
        // type error: TEXT + INT fails on every row
        Just(vec![bin(bin(col("GID"), Op::Add, int(1)), Op::Eq, int(2))]),
    ]
}

/// `(ORDER BY, LIMIT)`.
fn arb_tail() -> impl Strategy<Value = (Option<(&'static str, bool)>, Option<usize>)> {
    prop_oneof![
        Just((None, None)),
        (1usize..40).prop_map(|k| (None, Some(k))),
        Just((Some(("Len", true)), None)),
        (1usize..20).prop_map(|k| (Some(("Len", true)), Some(k))),
    ]
}

/// `(DISTINCT, items)`.
fn arb_scan_items() -> impl Strategy<Value = (bool, Vec<Item>)> {
    prop_oneof![
        Just((false, items(vec![col("GID")]))),
        Just((false, items(vec![col("GID"), col("Len")]))),
        Just((true, items(vec![col("GName")]))),
        Just((
            false,
            items(vec![bin(col("Len"), Op::Add, col("Bucket")), col("GID")])
        )),
        Just((
            false,
            vec![Item {
                expr: col("GID"),
                promote: vec![col("Len")],
            }]
        )),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Single-table scans: projections, filters, annotations, DISTINCT,
    /// ORDER BY, LIMIT.
    #[test]
    fn scans_are_equivalent(
        (distinct, items) in arb_scan_items(),
        annotated in any::<bool>(),
        conds in arb_where(),
        (order_by, limit) in arb_tail(),
    ) {
        check(&Query {
            distinct,
            items,
            from: vec![gene(annotated)],
            conds,
            order_by,
            limit,
            ..Query::default()
        });
    }

    /// Aggregation: the streaming-accumulator shapes and the grouped
    /// fallback (HAVING).
    #[test]
    fn aggregates_are_equivalent(
        annotated in any::<bool>(),
        conds in arb_where(),
        shape in 0usize..4,
    ) {
        let mut q = Query {
            from: vec![gene(annotated)],
            conds,
            ..Query::default()
        };
        match shape {
            0 => {
                q.items = items(vec![
                    agg(Agg::Count, None),
                    agg(Agg::Sum, Some(col("Len"))),
                    agg(Agg::Min, Some(col("Len"))),
                    agg(Agg::Max, Some(col("GID"))),
                    agg(Agg::Avg, Some(col("Len"))),
                ]);
            }
            1 => {
                q.items = items(vec![
                    col("Bucket"),
                    agg(Agg::Count, None),
                    agg(Agg::Sum, Some(col("Len"))),
                ]);
                q.group_by = vec![col("Bucket")];
            }
            2 => {
                q.items = items(vec![col("GName"), agg(Agg::Count, None)]);
                q.group_by = vec![col("GName")];
                q.having = Some(bin(agg(Agg::Count, None), Op::Gt, int(2)));
            }
            _ => {
                q.items = items(vec![
                    col("Bucket"),
                    bin(col("Bucket"), Op::Mul, int(2)),
                    agg(Agg::Min, Some(col("GID"))),
                ]);
                q.group_by = vec![col("Bucket")];
                q.order_by = Some(("Bucket", false));
            }
        }
        check(&q);
    }

    /// Joins: the equi-key hash join plus single-source and residual
    /// filters and limits, with and without annotations on Gene.
    #[test]
    fn joins_are_equivalent(
        extra in prop_oneof![
            Just(None),
            Just(Some(bin(qcol("G", "Bucket"), Op::Eq, int(2)))),
            Just(Some(Ex::Like(Box::new(qcol("T", "TName")), "t1%".to_string()))),
            (0i64..100).prop_map(|k| Some(bin(qcol("G", "Len"), Op::Lt, int(k)))),
        ],
        limit in prop_oneof![Just(None), (1usize..30).prop_map(Some)],
        annotated in any::<bool>(),
    ) {
        let mut conds = vec![bin(qcol("G", "Len"), Op::Eq, qcol("T", "TLen"))];
        conds.extend(extra);
        check(&Query {
            items: items(vec![qcol("G", "GID"), qcol("T", "TName")]),
            from: vec![
                Src { table: Table::Gene, alias: Some("G"), annotated },
                Src { table: Table::Tag, alias: Some("T"), annotated: false },
            ],
            conds,
            limit,
            ..Query::default()
        });
    }

    /// The annotation-predicate operators (AWHERE / FILTER, §3.4).
    #[test]
    fn annotation_predicates_are_equivalent(
        conds in arb_where(),
        shape in 0usize..3,
    ) {
        let mut q = Query {
            items: items(vec![col("GID")]),
            from: vec![gene(true)],
            conds,
            ..Query::default()
        };
        match shape {
            0 => q.awhere = Some(AnnPred::Contains("curated")),
            1 => {
                q.items = items(vec![col("GID"), col("Len")]);
                q.filter = Some(AnnPred::Contains("GenoBase"));
            }
            _ => q.awhere = Some(AnnPred::Path("/Annotation", "from GenoBase")),
        }
        check(&q);
    }

    /// Broken projections and predicates fail with the pinned error code
    /// (`None`: the query succeeds) in the engine and the reference alike.
    #[test]
    fn errors_are_equivalent(
        (q, code) in prop_oneof![
            Just((vec![col("Nope")], Vec::new(), Some(ErrorCode::NotFound))),
            Just((
                vec![col("GID")],
                vec![bin(col("Nope"), Op::Eq, int(1))],
                Some(ErrorCode::NotFound),
            )),
            Just((vec![bin(col("GID"), Op::Add, int(1))], Vec::new(), Some(ErrorCode::Eval))),
            Just((
                vec![col("GID")],
                vec![Ex::Like(Box::new(col("Len")), "[".to_string())],
                Some(ErrorCode::Eval),
            )),
            // SUM over text sums nothing: not an error
            Just((
                vec![agg(Agg::Sum, Some(bin(col("GID"), Op::Concat, Ex::Text("x"))))],
                Vec::new(),
                None,
            )),
            (0i64..300).prop_map(|k| (
                vec![col("GID"), bin(col("GID"), Op::Add, int(1))],
                vec![bin(col("Len"), Op::Eq, int(k))],
                Some(ErrorCode::Eval),
            )),
        ].prop_map(|(exprs, conds, code)| (
            Query {
                items: items(exprs),
                from: vec![gene(false)],
                conds,
                ..Query::default()
            },
            code,
        )),
    ) {
        let fx_code = FIXTURE.with(|fx| fx.borrow().reference(&q).err());
        prop_assert_eq!(fx_code, code, "reference outcome for {}", q.sql());
        check(&q);
    }
}
