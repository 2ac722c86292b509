//! The generated data set and the oracle every result is checked against.
//!
//! Everything here is a pure function of the seed: the benchmark writes
//! the input files from it before the set-up clock starts, and the engine
//! only ever sees those files (through `COPY`) and SQL text.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// SplitMix64: small, fast, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Table sizes of one workload's database.
#[derive(Clone, Copy)]
pub struct Sizes {
    pub genes: usize,
    pub tags: usize,
    pub prots: usize,
}

/// Residues per `Prot` sequence and the `CONTAINS SEQ` pattern length.
const PROT_LEN: usize = 300;
const PATTERN_LEN: usize = 24;
/// Distinct `CONTAINS SEQ` patterns, with expected hits precomputed.
const PATTERNS: usize = 256;
const MAX_HITS: usize = 4;

/// The generator's model of the database:
///
/// * `Gene(GID, GName, Len, Bucket, Seq)`: row `r` has `GID = G<r>`,
///   `Len` from a seeded shuffle of `0..genes` — a unique key whose
///   `COUNT/SUM/MIN/MAX` have closed forms, and whose ranges land on
///   rows scattered over the whole heap for every seed — `Bucket = r
///   mod 100`, and a 40–63 base `Seq`.
/// * `Tag(Len, TName)`: tag `t` has `Len = t * (genes / tags)`, so the
///   join `Tag ⋈ Gene` on `Len` yields exactly one gene per tag.
/// * `Prot(Hdr, SS)`: secondary-structure strings over `H/E/C`.
pub struct Model {
    pub seed: u64,
    pub sizes: Sizes,
    len_of_row: Vec<u32>,
    row_of_len: Vec<u32>,
    tag_step: usize,
    pub prots: Vec<String>,
    /// `(pattern, sorted Hdrs whose SS contains it)` by naive search.
    pub patterns: Vec<(String, Vec<String>)>,
    /// Text of the column annotation every `GName` carries.
    pub note: String,
}

impl Model {
    pub fn new(seed: u64, sizes: Sizes) -> Model {
        let mut rng = Rng::new(seed);
        let mut len_of_row: Vec<u32> = (0..sizes.genes as u32).collect();
        for i in (1..len_of_row.len()).rev() {
            len_of_row.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let mut row_of_len = vec![0u32; sizes.genes];
        for (r, &len) in len_of_row.iter().enumerate() {
            row_of_len[len as usize] = r as u32;
        }
        let prots: Vec<String> = (0..sizes.prots)
            .map(|_| secondary_structure(&mut rng, PROT_LEN))
            .collect();
        // motif-like patterns: at most MAX_HITS sequences contain each, so
        // every search costs about the same and the median does not hinge
        // on how many common patterns a seed happens to draw
        let mut patterns = Vec::with_capacity(PATTERNS);
        while patterns.len() < PATTERNS {
            let p = &prots[rng.below(prots.len() as u64) as usize];
            let at = rng.below((PROT_LEN - PATTERN_LEN) as u64) as usize;
            let pat = p[at..at + PATTERN_LEN].to_string();
            let hits: Vec<String> = prots
                .iter()
                .enumerate()
                .filter(|(_, s)| s.contains(&pat))
                .map(|(i, _)| prot_hdr(i))
                .collect();
            if hits.len() <= MAX_HITS {
                patterns.push((pat, hits));
            }
        }
        Model {
            seed,
            sizes,
            len_of_row,
            row_of_len,
            tag_step: sizes.genes / sizes.tags,
            prots,
            patterns,
            note: format!("curated against GenoBase release {}", seed % 1000),
        }
    }

    pub fn len_of(&self, row: usize) -> i64 {
        self.len_of_row[row] as i64
    }

    /// Row of a generated gene from its `GID` (`G<r>`, `r < genes`).
    pub fn gene_row(&self, gid: &str) -> Option<usize> {
        let r: usize = gid.strip_prefix('G')?.parse().ok()?;
        (r < self.sizes.genes).then_some(r)
    }

    pub fn row_of(&self, len: i64) -> usize {
        self.row_of_len[len as usize] as usize
    }

    pub fn base_name(&self, row: usize) -> String {
        format!("g{:06x}", mix(self.seed ^ ((row as u64) << 20)) & 0xff_ffff)
    }

    pub fn tag_len(&self, t: usize) -> i64 {
        (t * self.tag_step) as i64
    }

    /// `Len` values `v` in `0..genes` with `v % 10 == 3`.
    pub fn filter_count(&self) -> usize {
        (self.sizes.genes + 6) / 10
    }

    /// Write `genes.tsv`, `tags.tsv`, and `prot.fa` into `dir`.
    pub fn write_inputs(&self, dir: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(dir.join("genes.tsv"))?);
        let mut line = String::new();
        for r in 0..self.sizes.genes {
            line.clear();
            let mut rng = Rng::new(self.seed ^ mix(r as u64));
            let len = 40 + rng.below(24) as usize;
            let seq = dna(&mut rng, len);
            let _ = writeln!(
                line,
                "{}\t{}\t{}\t{}\t{}",
                gid(r),
                self.base_name(r),
                self.len_of(r),
                r % 100,
                seq
            );
            out.write_all(line.as_bytes())?;
        }
        out.flush()?;
        let mut out = std::io::BufWriter::new(std::fs::File::create(dir.join("tags.tsv"))?);
        for t in 0..self.sizes.tags {
            writeln!(out, "{}\ttag{t}", self.tag_len(t))?;
        }
        out.flush()?;
        let mut out = std::io::BufWriter::new(std::fs::File::create(dir.join("prot.fa"))?);
        for (i, s) in self.prots.iter().enumerate() {
            writeln!(out, ">{}", prot_hdr(i))?;
            for chunk in s.as_bytes().chunks(60) {
                out.write_all(chunk)?;
                out.write_all(b"\n")?;
            }
        }
        out.flush()
    }
}

pub fn gid(row: usize) -> String {
    format!("G{row:07}")
}

pub fn prot_hdr(i: usize) -> String {
    format!("P{i:05}")
}

fn dna(rng: &mut Rng, len: usize) -> String {
    (0..len)
        .map(|_| b"ACGT"[rng.below(4) as usize] as char)
        .collect()
}

/// Runs of helix / strand / coil with a mean run length of 8.
fn secondary_structure(rng: &mut Rng, len: usize) -> String {
    let mut s = String::with_capacity(len);
    let mut state = rng.below(3) as usize;
    while s.len() < len {
        s.push(b"HEC"[state] as char);
        if rng.below(8) == 0 {
            state = (state + 1 + rng.below(2) as usize) % 3;
        }
    }
    s
}
