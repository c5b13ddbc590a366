//! Seeded inputs: Gaussian-cluster tables, their CSV text, label splits
//! and the serving request stream.
//!
//! Everything here is a pure function of the `--seed` argument and uses
//! its own splitmix64 stream, not the program's random number generator,
//! so the program under test receives only the generated bytes.

use gnn4tdl_data::Split;

/// splitmix64: a counter-based generator, one independent stream per
/// `(seed, stream)` pair.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut s = SplitMix(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        s.next_u64();
        s
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Standard normal draw (Box-Muller, cosine branch).
    pub fn normal(&mut self) -> f64 {
        let u1 = 1.0 - self.unit(); // (0, 1]: ln stays finite
        let u2 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Uniform in `0..n` (`n > 0`; modulo bias is below 2^-40 here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Stream ids: each use of the seed draws from its own stream.
pub const STREAM_CENTERS: u64 = 1;
pub const STREAM_TABLE: u64 = 2;
pub const STREAM_SPLIT: u64 = 3;
pub const STREAM_REQUESTS: u64 = 4;
pub const STREAM_WAL: u64 = 5;

/// Gaussian blobs, one per class: `informative` dimensions carry the class
/// centre, `noise` further dimensions are pure noise (they blur the
/// distances a kNN graph is built from, as irrelevant columns do in real
/// tables).
#[derive(Clone, Debug)]
pub struct Clusters {
    pub informative: usize,
    pub noise: usize,
    pub classes: usize,
    pub center_scale: f64,
    pub std: f64,
}

/// The table every workload draws from: 3 classes, 12 informative and 4
/// noise columns.
pub const TABLE: Clusters = Clusters { informative: 12, noise: 4, classes: 3, center_scale: 3.0, std: 1.0 };
pub const CLASSES: usize = TABLE.classes;

/// Generated rows, row-major, with the class of each row.
#[derive(Clone, Debug, PartialEq)]
pub struct Rows {
    pub dim: usize,
    pub x: Vec<f32>,
    pub labels: Vec<usize>,
}

impl Rows {
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    pub fn row(&self, i: usize) -> &[f32] {
        &self.x[i * self.dim..(i + 1) * self.dim]
    }
}

impl Clusters {
    pub fn dim(&self) -> usize {
        self.informative + self.noise
    }

    /// Seeded orthonormal directions (Gram-Schmidt over normal draws)
    /// scaled to `center_scale`: every pair of centres is the same distance
    /// apart, so the seed moves the samples, not how hard the task is.
    fn centers(&self, seed: u64) -> Vec<Vec<f64>> {
        assert!(self.classes <= self.informative, "orthogonal centres need a dimension per class");
        let mut rng = SplitMix::new(seed, STREAM_CENTERS);
        let mut basis: Vec<Vec<f64>> = Vec::with_capacity(self.classes);
        while basis.len() < self.classes {
            let mut v: Vec<f64> = (0..self.informative).map(|_| rng.normal()).collect();
            for b in &basis {
                let dot: f64 = v.iter().zip(b).map(|(a, c)| a * c).sum();
                v.iter_mut().zip(b).for_each(|(a, c)| *a -= dot * c);
            }
            let norm = v.iter().map(|a| a * a).sum::<f64>().sqrt();
            if norm > 1e-6 {
                basis.push(v.into_iter().map(|a| a / norm).collect());
            }
        }
        basis.into_iter().map(|v| v.into_iter().map(|a| a * self.center_scale).collect()).collect()
    }

    /// `n` rows from stream `stream`; the class centres depend on `seed`
    /// alone, so a corpus and a request stream drawn from different streams
    /// of one seed share their distribution. Classes cycle row by row.
    pub fn rows(&self, seed: u64, stream: u64, n: usize) -> Rows {
        let centers = self.centers(seed);
        let mut rng = SplitMix::new(seed, stream);
        let dim = self.dim();
        let mut x = Vec::with_capacity(n * dim);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let y = i % self.classes;
            labels.push(y);
            for j in 0..dim {
                // Noise dimensions have no centre coordinate.
                let centre = centers[y].get(j).copied().unwrap_or(0.0);
                x.push((centre + rng.normal() * self.std) as f32);
            }
        }
        Rows { dim, x, labels }
    }
}

/// Name of the label column in the generated CSV.
pub const LABEL_COLUMN: &str = "label";

/// CSV text of `rows`: feature columns `f0..`, then the label column.
/// Values print in Rust's shortest round-trip form, so the parsed `f32`s
/// equal the generated ones bit for bit.
pub fn csv(rows: &Rows) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(rows.len() * rows.dim * 12);
    for j in 0..rows.dim {
        let _ = write!(out, "f{j},");
    }
    out.push_str(LABEL_COLUMN);
    out.push('\n');
    for i in 0..rows.len() {
        for v in rows.row(i) {
            let _ = write!(out, "{v},");
        }
        let _ = writeln!(out, "{}", rows.labels[i]);
    }
    out
}

/// Seeded random split: a shuffled permutation cut into train, validation
/// and test parts, each sorted.
pub fn split(n: usize, train_frac: f64, val_frac: f64, seed: u64) -> Split {
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = SplitMix::new(seed, STREAM_SPLIT);
    for i in (1..n).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let n_train = (n as f64 * train_frac).round() as usize;
    let n_val = (n as f64 * val_frac).round() as usize;
    let part = |range: std::ops::Range<usize>| {
        let mut v = order[range].to_vec();
        v.sort_unstable();
        v
    };
    Split { train: part(0..n_train), val: part(n_train..n_train + n_val), test: part(n_train + n_val..n) }
}

/// The shape of a serving request stream: single-row requests with a
/// `batch`-row request at every `period`-th position.
#[derive(Clone, Copy, Debug)]
pub struct StreamShape {
    pub requests: usize,
    pub period: usize,
    pub batch: usize,
}

impl StreamShape {
    pub fn is_batch(&self, request: usize) -> bool {
        (request + 1).is_multiple_of(self.period)
    }

    pub fn rows_in(&self, request: usize) -> usize {
        if self.is_batch(request) {
            self.batch
        } else {
            1
        }
    }

    pub fn total_rows(&self) -> usize {
        (0..self.requests).map(|r| self.rows_in(r)).sum()
    }

    #[cfg(test)]
    pub fn batches(&self) -> usize {
        (0..self.requests).filter(|&r| self.is_batch(r)).count()
    }
}

/// One request of the stream: the ids of its rows in the stream's row set
/// and the raw HTTP/1.1 bytes sent for it.
pub struct Request {
    pub rows: std::ops::Range<usize>,
    pub raw: Vec<u8>,
}

fn row_json(out: &mut String, row: &[f32]) {
    use std::fmt::Write as _;
    out.push('[');
    for (j, v) in row.iter().enumerate() {
        if j > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
}

/// The JSON body for a request over `rows` (`{"row": ..}` for one row,
/// `{"rows": [..]}` for a batch).
fn body(rows: &Rows, ids: std::ops::Range<usize>, batch: bool) -> String {
    let mut out = String::new();
    if batch {
        out.push_str("{\"rows\": [");
        for (n, i) in ids.enumerate() {
            if n > 0 {
                out.push(',');
            }
            row_json(&mut out, rows.row(i));
        }
        out.push_str("]}");
    } else {
        out.push_str("{\"row\": ");
        row_json(&mut out, rows.row(ids.start));
        out.push('}');
    }
    out
}

/// One keep-alive `POST /predict_proba` carrying `body`.
fn http_post(body: &str) -> Vec<u8> {
    format!(
        "POST /predict_proba HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// The request stream over `rows` (which must hold `shape.total_rows()`
/// rows), in send order.
pub fn request_stream(rows: &Rows, shape: &StreamShape) -> Vec<Request> {
    assert_eq!(rows.len(), shape.total_rows(), "request rows must match the stream shape");
    let mut next = 0usize;
    (0..shape.requests)
        .map(|r| {
            let ids = next..next + shape.rows_in(r);
            next = ids.end;
            let raw = http_post(&body(rows, ids.clone(), shape.is_batch(r)));
            Request { rows: ids, raw }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Clusters {
        Clusters { informative: 4, noise: 2, classes: 3, center_scale: 3.0, std: 1.0 }
    }

    #[test]
    fn csv_is_byte_identical_for_equal_seeds() {
        let a = csv(&table().rows(7, STREAM_TABLE, 200));
        let b = csv(&table().rows(7, STREAM_TABLE, 200));
        assert_eq!(a.as_bytes(), b.as_bytes());
        assert_ne!(a, csv(&table().rows(8, STREAM_TABLE, 200)), "the seed must change the table");
        assert!(a.starts_with("f0,f1,f2,f3,f4,f5,label\n"));
    }

    #[test]
    fn csv_round_trips_through_the_reader_bit_for_bit() {
        let rows = table().rows(3, STREAM_TABLE, 50);
        let parsed = gnn4tdl_data::read_csv_str(&csv(&rows), &Default::default()).expect("parses");
        let table = &parsed.table;
        assert_eq!(table.num_rows(), 50);
        for j in 0..rows.dim {
            let gnn4tdl_data::ColumnData::Numeric(values) = &table.column(j).data else {
                panic!("feature column {j} must parse as numeric");
            };
            for (i, v) in values.iter().enumerate() {
                assert_eq!(v.to_bits(), rows.row(i)[j].to_bits());
            }
        }
    }

    #[test]
    fn request_stream_is_byte_identical_for_equal_seeds() {
        let shape = StreamShape { requests: 40, period: 8, batch: 4 };
        let stream = |seed| {
            let rows = table().rows(seed, STREAM_REQUESTS, shape.total_rows());
            request_stream(&rows, &shape).into_iter().flat_map(|r| r.raw).collect::<Vec<u8>>()
        };
        assert_eq!(stream(11), stream(11));
        assert_ne!(stream(11), stream(12));
    }

    #[test]
    fn stream_shape_places_batches_at_the_period() {
        let shape = StreamShape { requests: 16, period: 8, batch: 32 };
        assert_eq!(shape.batches(), 2);
        assert!(shape.is_batch(7) && shape.is_batch(15) && !shape.is_batch(8));
        assert_eq!(shape.total_rows(), 14 + 64);
        let rows = table().rows(1, STREAM_REQUESTS, shape.total_rows());
        let stream = request_stream(&rows, &shape);
        assert_eq!(stream[7].rows, 7..39);
        assert_eq!(stream[8].rows, 39..40);
        let text = String::from_utf8(stream[7].raw.clone()).expect("ascii");
        assert!(text.contains("{\"rows\": [["), "batch requests carry a rows array");
    }

    #[test]
    fn centres_are_equidistant_for_every_seed() {
        for seed in 0..4 {
            let c = table().centers(seed);
            let dist =
                |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(x, y)| (x - y).powi(2)).sum::<f64>().sqrt();
            for (i, j) in [(0, 1), (0, 2), (1, 2)] {
                assert!((dist(&c[i], &c[j]) - 3.0 * 2f64.sqrt()).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn split_is_a_seeded_partition() {
        let s = split(1000, 0.05, 0.02, 9);
        assert_eq!((s.train.len(), s.val.len(), s.test.len()), (50, 20, 930));
        let mut all: Vec<usize> = s.train.iter().chain(&s.val).chain(&s.test).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..1000).collect::<Vec<_>>());
        assert_eq!(split(1000, 0.05, 0.02, 9).train, s.train);
        assert_ne!(split(1000, 0.05, 0.02, 10).train, s.train);
    }
}
