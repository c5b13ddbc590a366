//! The two fit workloads: `fit_full` (full-batch GCN on an exact kNN graph)
//! and `fit_minibatch` (neighbor-sampled GraphSAGE on an HNSW kNN graph).
//!
//! Both read their table from a generated CSV and run `try_fit_pipeline`
//! once per round. The traced variant replays the same pipeline stage by
//! stage through the crates' public functions and times each stage.

use std::path::Path;
use std::time::Instant;

use gnn4tdl::prelude::{Batching, EdgeRule, EncoderSpec, GraphSpec, IndexKind, PipelineConfig, Similarity};
use gnn4tdl::{try_fit_pipeline, PipelineResult};
use gnn4tdl_construct::{build_index, index_knn_edges};
use gnn4tdl_data::{read_csv, ColumnData, CsvOptions, Dataset, Featurizer, Split, Table, Target};
use gnn4tdl_graph::Graph;
use gnn4tdl_nn::{GcnModel, NodeModel, SageModel};
use gnn4tdl_tensor::{parallel, pool, Matrix, ParamStore};
use gnn4tdl_train::{fit, fit_minibatch, predict, NeighborSampler, NodeTask, SupervisedModel, TrainConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::gen::{self, Rows, CLASSES, LABEL_COLUMN, STREAM_TABLE, TABLE};
use crate::outcome::Outcome;
use crate::reference::{self, NearestMean, ACCURACY_MARGIN, RECALL_FLOOR};
use crate::stats::{median, peak_rss_mib, rss_mib};
use crate::K;

/// Everything that defines one fit workload's inputs and model.
pub struct FitSpec {
    pub rows: usize,
    pub train_frac: f64,
    pub val_frac: f64,
    pub pipeline: PipelineConfig,
}

/// `read_csv` calls per round; the round reports their median.
const SETUP_REPEATS: usize = 5;
/// Query rows of the sampled HNSW recall.
const RECALL_QUERIES: usize = 200;

fn pipeline(encoder: EncoderSpec, index: IndexKind, batching: Batching, epochs: usize) -> PipelineConfig {
    PipelineConfig::builder(GraphSpec::Rule {
        similarity: Similarity::Euclidean,
        rule: EdgeRule::Knn { k: K },
    })
    .encoder(encoder)
    .hidden(32)
    .layers(2)
    .knn_index(index)
    .batching(batching)
    .train(TrainConfig { epochs, patience: 0, ..TrainConfig::default() })
    .seed(1)
    .build()
}

/// `fit_full`: 10k rows, 5% labelled, full-batch GCN for a fixed 200
/// epochs on the exact kNN graph.
pub fn full_spec() -> FitSpec {
    FitSpec {
        rows: 10_000,
        train_frac: 0.05,
        val_frac: 0.05,
        pipeline: pipeline(EncoderSpec::Gcn, IndexKind::Exact, Batching::Full, 200),
    }
}

/// `fit_minibatch`: 50k rows, 2% labelled, GraphSAGE over sampled blocks
/// on an HNSW kNN graph, with the prefetch sampler beside the compute
/// thread.
pub fn minibatch_spec() -> FitSpec {
    FitSpec {
        rows: 50_000,
        train_frac: 0.02,
        val_frac: 0.01,
        pipeline: pipeline(
            EncoderSpec::Sage,
            IndexKind::Hnsw { m: 12, ef_construction: 64, ef_search: 48, seed: 17 },
            Batching::Neighbor { batch_size: 128, fanouts: vec![10, 5], seed: 11 },
            10,
        ),
    }
}

impl FitSpec {
    pub fn rows(&self, seed: u64) -> Rows {
        TABLE.rows(seed, STREAM_TABLE, self.rows)
    }

    pub fn split(&self, seed: u64) -> Split {
        gen::split(self.rows, self.train_frac, self.val_frac, seed)
    }

    fn epochs(&self) -> usize {
        self.pipeline.train.epochs
    }
}

/// Writes the workload's CSV input.
pub fn prepare(spec: &FitSpec, seed: u64, csv_path: &Path) -> std::io::Result<()> {
    std::fs::write(csv_path, gen::csv(&spec.rows(seed)))
}

/// Reads the CSV with the program's reader and moves the label column into
/// the classification target.
fn load(csv_path: &Path) -> Result<Dataset, String> {
    let parsed = read_csv(csv_path, &CsvOptions::default()).map_err(|e| format!("read_csv: {e}"))?;
    let mut columns = parsed.table.columns().to_vec();
    let at = columns.iter().position(|c| c.name == LABEL_COLUMN).ok_or("the CSV has no label column")?;
    let label = columns.remove(at);
    let ColumnData::Numeric(values) = &label.data else {
        return Err("the label column did not parse as numeric".into());
    };
    let labels: Vec<usize> = values.iter().map(|&v| v as usize).collect();
    let num_classes = labels.iter().max().map_or(0, |m| m + 1);
    Ok(Dataset::new("perfbench", Table::new(columns), Target::Classification { labels, num_classes }))
}

/// `SETUP_REPEATS` timed reads; returns the last dataset and the median
/// read time in seconds.
fn timed_loads(csv_path: &Path) -> Result<(Dataset, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut dataset = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let ds = load(csv_path)?;
        times.push(t.elapsed().as_secs_f64());
        dataset = Some(ds);
    }
    Ok((dataset.expect("SETUP_REPEATS > 0"), median(&times)))
}

/// Checks the fitted predictions against the generated labels and the
/// nearest-class-mean reference; returns the test accuracy.
fn check_fit(spec: &FitSpec, seed: u64, dataset: &Dataset, predictions: &Matrix, out: &mut Outcome) -> f64 {
    let rows = spec.rows(seed);
    let split = spec.split(seed);
    out.check(dataset.target.labels() == rows.labels.as_slice(), || {
        "CSV labels differ from the generated ones".into()
    });
    let accuracy = match reference::check_predictions(
        predictions.data(),
        predictions.shape(),
        spec.rows,
        CLASSES,
        &rows.labels,
        &split.test,
    ) {
        Ok(acc) => acc,
        Err(e) => {
            out.check(false, || e);
            return f64::NAN;
        }
    };
    let labelled: Vec<usize> = split.train.iter().chain(&split.val).copied().collect();
    let reference = NearestMean::fit(&rows, &labelled, CLASSES).accuracy(&rows, &split.test);
    eprintln!("perfbench: test accuracy {accuracy:.4}, nearest-class-mean reference {reference:.4}");
    out.check(accuracy >= reference - ACCURACY_MARGIN, || {
        format!(
            "test accuracy {accuracy:.4} is below the nearest-class-mean reference {reference:.4} less {}",
            ACCURACY_MARGIN
        )
    });
    accuracy
}

/// One measured round: read the CSV, fit once, check.
pub fn round(spec: &FitSpec, seed: u64, csv_path: &Path) -> Outcome {
    parallel::set_threads(crate::COMPUTE_THREADS);
    let mut out = Outcome::default();
    let (dataset, setup_s) = match timed_loads(csv_path) {
        Ok(loaded) => loaded,
        Err(e) => {
            out.check(false, || e);
            return out;
        }
    };
    let split = spec.split(seed);
    let t = Instant::now();
    let result = try_fit_pipeline(&dataset, &split, &spec.pipeline);
    let fit_s = t.elapsed().as_secs_f64();
    let peak = peak_rss_mib();
    out.attempted = 1;
    let result: PipelineResult = match result {
        Ok(r) => r,
        Err(e) => {
            out.failed = 1;
            out.check(false, || format!("try_fit_pipeline failed: {e}"));
            return out;
        }
    };
    let accuracy = check_fit(spec, seed, &dataset, &result.predictions, &mut out);
    let fit_ms = fit_s * 1e3;
    out.put("setup_s", setup_s, "s");
    out.put("fit_s", fit_s, "s");
    out.put("accuracy", accuracy, "ratio");
    out.put("peak_rss_mb", peak, "MiB");
    out.put("rows_per_s", spec.rows as f64 / fit_s, "1/s");
    // A fit workload's one request is the fit call itself.
    out.put("req_p50_ms", fit_ms, "ms");
    out.put("batch_p50_ms", fit_ms / spec.epochs() as f64, "ms");
    out
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Median wall time of `reps` calls of `f`, in milliseconds.
fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            ms_since(t)
        })
        .collect();
    median(&times)
}

/// The traced round: the pipeline's stages called one by one, in the
/// order `try_fit_pipeline` runs them, each timed from outside. The staged
/// predictions must equal the pipeline's bit for bit, which shows the
/// replay runs the same computation. `fit_ms` is the wall time of the
/// untraced fit (from a separate process) the stage times are measured
/// against.
pub fn trace(spec: &FitSpec, seed: u64, csv_path: &Path, fit_ms: f64) -> Outcome {
    parallel::set_threads(crate::COMPUTE_THREADS);
    let mut out = Outcome::default();
    let cfg = &spec.pipeline;
    let (dataset, setup_s) = match timed_loads(csv_path) {
        Ok(loaded) => loaded,
        Err(e) => {
            out.check(false, || e);
            return out;
        }
    };
    out.put("data.read_csv_ms", setup_s * 1e3, "ms");
    let split = spec.split(seed);
    let labels = dataset.target.labels().to_vec();

    let t = Instant::now();
    let features = Featurizer::fit(&dataset.table, &split.train).encode(&dataset.table).features;
    let featurize_ms = ms_since(t);
    out.put("data.featurize_ms", featurize_ms, "ms");
    let n = features.rows();
    let in_dim = features.cols();

    let hnsw = matches!(cfg.knn_index, IndexKind::Hnsw { .. });
    let t = Instant::now();
    let index = build_index(&features, Similarity::Euclidean, &cfg.knn_index);
    let build_ms = ms_since(t);
    let edges = index_knn_edges(index.as_ref(), K);
    let graph = Graph::from_weighted_edges(n, &edges, true);
    let construct_ms = ms_since(t);
    if hnsw {
        out.put("construct.hnsw_build_ms", build_ms, "ms");
        out.put("construct.hnsw_query_ms", construct_ms - build_ms, "ms");
        let queries = reference::sample_ids(n, RECALL_QUERIES);
        let recall = queries
            .iter()
            .map(|&q| {
                let approx: Vec<usize> =
                    index.query_k(&features, q, K, Some(q)).into_iter().map(|(i, _)| i).collect();
                reference::recall(&approx, &reference::brute_knn(features.data(), in_dim, q, K))
            })
            .sum::<f64>()
            / queries.len() as f64;
        out.put("construct.hnsw_recall", recall, "ratio");
        out.check(recall >= RECALL_FLOOR, || format!("HNSW recall@{K} {recall:.4} is below {RECALL_FLOOR}"));
    } else {
        out.put("construct.exact_knn_ms", construct_ms, "ms");
    }
    drop(index);

    let task = NodeTask::classification(features.clone(), labels, CLASSES, split.clone());
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let dims = [in_dim, cfg.hidden, cfg.hidden];
    // The pipeline's replay, one encoder per workload.
    let (train_ms, predictions) = match &cfg.batching {
        Batching::Full => {
            let encoder: Box<dyn NodeModel> =
                Box::new(GcnModel::new(&mut store, &graph, &dims, cfg.dropout, &mut rng));
            let model = SupervisedModel::new(&mut store, 0, encoder, CLASSES, &mut rng);
            pool::reset_global_stats();
            let t = Instant::now();
            let report = fit(&model, &mut store, &task, &[], &cfg.train);
            let train_ms = ms_since(t);
            let stats = pool::global_stats();
            out.put("train.epoch_ms", train_ms / report.epochs_run().max(1) as f64, "ms");
            out.put("pool.hit_rate", stats.hit_rate(), "ratio");
            out.put("pool.misses", stats.misses as f64, "count");
            let t = Instant::now();
            let pred = predict(&model, &store, &task.features);
            out.put("train.predict_ms", ms_since(t), "ms");
            (train_ms, pred)
        }
        Batching::Neighbor { batch_size, fanouts, seed: sampler_seed } => {
            let sampler = NeighborSampler::new(*batch_size, fanouts.clone(), *sampler_seed);
            let encoder = SageModel::new(&mut store, &graph, &dims, cfg.dropout, &mut rng);
            let model = SupervisedModel::new(&mut store, 0, encoder, CLASSES, &mut rng);
            pool::reset_global_stats();
            let rss_before = rss_mib();
            let t = Instant::now();
            let report = fit_minibatch(&model, &mut store, &graph, &task, &sampler, &cfg.train);
            let train_ms = ms_since(t);
            let rss_growth = rss_mib() - rss_before;
            let stats = pool::global_stats();
            let blocks = report.epochs_run() * split.train.len().div_ceil(*batch_size);
            out.put("train.block_ms", train_ms / blocks.max(1) as f64, "ms");
            out.put("pool.rss_growth_mb", rss_growth, "MiB");
            out.put("pool.hit_rate", stats.hit_rate(), "ratio");
            let t = Instant::now();
            let pred = predict(&model, &store, &task.features);
            out.put("train.predict_ms", ms_since(t), "ms");
            // Blocks of the first epoch, sampled inline and timed one by one.
            let mut times = Vec::new();
            let mut nodes = 0usize;
            let batches = sampler.epoch_batches(&split.train, 0);
            for (b, seeds) in batches.iter().enumerate() {
                let t = Instant::now();
                let block = sampler.sample_block(&graph, &task.features, seeds, 0, b as u64);
                times.push(ms_since(t));
                nodes += block.num_nodes();
            }
            out.put("train.sample_block_ms", median(&times), "ms");
            out.put("train.block_nodes", nodes as f64 / batches.len().max(1) as f64, "count");
            (train_ms, pred)
        }
    };
    let staged_ms = featurize_ms + construct_ms + train_ms + out.get("train.predict_ms").unwrap_or(0.0);
    out.put("trace.coverage", staged_ms / fit_ms, "ratio");

    // Same bits as the pipeline: the replay is faithful.
    let piped = try_fit_pipeline(&dataset, &split, cfg);
    out.attempted = 2;
    match piped {
        Ok(r) => out.check(r.predictions.data() == predictions.data(), || {
            "the staged replay's predictions differ from try_fit_pipeline's".into()
        }),
        Err(e) => {
            out.failed = 1;
            out.check(false, || format!("try_fit_pipeline failed: {e}"));
        }
    }
    check_fit(spec, seed, &dataset, &predictions, &mut out);

    if matches!(cfg.batching, Batching::Full) {
        kernel_probes(&graph, cfg.hidden, &mut out);
    }
    out
}

/// Kernel-level probes on `fit_full`'s shapes: the dominant GEMM (an
/// `n x hidden` activation times a `hidden x hidden` weight), one sparse
/// propagation over the GCN operator, and the cost of one parallel region
/// over every core.
fn kernel_probes(graph: &Graph, hidden: usize, out: &mut Outcome) {
    let n = graph.num_nodes();
    let mut rng = gen::SplitMix::new(0, 99);
    let mut random = |rows: usize, cols: usize| {
        Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| rng.normal() as f32).collect())
    };
    let (h, w) = (random(n, hidden), random(hidden, hidden));
    let gemm_ms = median_ms(31, || {
        std::hint::black_box(std::hint::black_box(&h).matmul(&w));
    });
    out.put("tensor.gemm_gflops", 2.0 * (n * hidden * hidden) as f64 / (gemm_ms * 1e-3) / 1e9, "GFLOP/s");
    let adj = graph.gcn_adj();
    out.put(
        "tensor.spmm_ms",
        median_ms(31, || {
            std::hint::black_box(adj.matrix().spmm(std::hint::black_box(&h)));
        }),
        "ms",
    );
    // One region over one one-element chunk per core: pure dispatch
    // overhead, at the thread count a multi-threaded fit would use.
    const CALLS: usize = 2000;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut cells = vec![0u64; nproc];
    let per_call_us = parallel::with_threads(nproc, || {
        median_ms(9, || {
            for _ in 0..CALLS {
                parallel::par_chunks_mut(&mut cells, 1, |i, c| c[0] = c[0].wrapping_add(i as u64 + 1));
            }
        })
    }) * 1e3
        / CALLS as f64;
    std::hint::black_box(cells);
    out.put("tensor.dispatch_us", per_call_us, "us");
}
