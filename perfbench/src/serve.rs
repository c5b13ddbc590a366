//! The `serve_mixed` workload: the in-process HTTP server over a durable
//! state directory, driven by one keep-alive client with a closed loop of
//! seeded held-out rows.
//!
//! Off the clock, [`prepare`] fits a GCN servable on an HNSW kNN graph and
//! writes a template state directory: the generation-0 snapshot plus a WAL
//! holding [`WAL_ROWS`] earlier requests, so every start-up replays a log.
//! Each round copies the template, starts the server [`SETUP_REPEATS`]
//! times (start-up = snapshot load and checksum, WAL recovery, HNSW build,
//! bind) and sends the request stream. The stream holds enough rows to
//! reach the 4096-row request cap once, so each round holds exactly one
//! compaction, at the same request.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gnn4tdl::prelude::{IndexKind, ServableConfig, ServableModel, Similarity};
use gnn4tdl::EncoderSpec;
use gnn4tdl_construct::{HnswIndex, NeighborIndex};
use gnn4tdl_serve::engine::DEFAULT_REQUEST_CAP;
use gnn4tdl_serve::{http, json, serve, Engine, EngineSlot, ServerConfig, StateDir, Wal};
use gnn4tdl_tensor::{parallel, pool, Matrix};
use gnn4tdl_train::TrainConfig;

use crate::gen::{
    self, Request, Rows, StreamShape, CLASSES, STREAM_REQUESTS, STREAM_TABLE, STREAM_WAL, TABLE,
};
use crate::outcome::Outcome;
use crate::reference::{self, argmax, ACCURACY_MARGIN, RECALL_FLOOR};
use crate::stats::{self, median, peak_rss_mib, rss_mib};
use crate::K;

/// Server worker threads (one connection, so one worker is busy at most).
pub const WORKERS: usize = 1;
const CORPUS_ROWS: usize = 10_000;
const INDEX: IndexKind = IndexKind::Hnsw { m: 12, ef_construction: 64, ef_search: 48, seed: 17 };
/// Rows in the template WAL, replayed by every start-up.
const WAL_ROWS: usize = 200;
/// Start-ups per round; the round reports their median.
const SETUP_REPEATS: usize = 3;
/// 3024 single-row requests and 48 batch-32 requests, 4560 rows: with the
/// WAL's rows, the retained count reaches the cap at request 2624, and the
/// p99 of the single-row latencies has 30 samples beyond it.
const STREAM: StreamShape = StreamShape { requests: 3072, period: 64, batch: 32 };
/// Single-row requests served before the compaction that the exact
/// full-graph oracle re-checks (every 50th).
const ORACLE_EVERY: usize = 50;
/// Servable fits in preparation; `fit_s` is their median.
const FIT_REPEATS: usize = 3;
/// Lowest share of oracle-checked rows whose served class must agree with
/// the exact-neighbor full-graph prediction (the served path uses
/// approximate neighbors).
const ORACLE_AGREEMENT_FLOOR: f64 = 0.95;

fn corpus(seed: u64) -> Rows {
    TABLE.rows(seed, STREAM_TABLE, CORPUS_ROWS)
}

fn split(seed: u64) -> gnn4tdl_data::Split {
    gen::split(CORPUS_ROWS, 0.05, 0.05, seed)
}

fn request_rows(seed: u64) -> Rows {
    TABLE.rows(seed, STREAM_REQUESTS, STREAM.total_rows())
}

fn template(work: &Path) -> PathBuf {
    work.join("template")
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Fits the servable ([`FIT_REPEATS`] times; the median is reported as
/// `fit_s`) and writes the template state directory.
pub fn prepare(seed: u64, work: &Path) -> Result<Outcome, String> {
    parallel::set_threads(crate::COMPUTE_THREADS);
    let rows = corpus(seed);
    let features = Matrix::from_vec(rows.len(), rows.dim, rows.x.clone());
    let config = ServableConfig {
        encoder: EncoderSpec::Gcn,
        in_dim: rows.dim,
        hidden: 16,
        layers: 2,
        num_classes: CLASSES,
        dropout: 0.0,
        k: K,
        similarity: Similarity::Euclidean,
        index: INDEX,
    };
    let train = TrainConfig { epochs: 60, patience: 0, ..TrainConfig::default() };
    let mut fits = Vec::with_capacity(FIT_REPEATS);
    let mut model = None;
    for _ in 0..FIT_REPEATS {
        let t = Instant::now();
        let fitted =
            ServableModel::fit(features.clone(), rows.labels.clone(), &split(seed), config.clone(), &train);
        fits.push(t.elapsed().as_secs_f64());
        model = Some(fitted.map_err(err)?);
    }
    let model = model.expect("FIT_REPEATS > 0");
    let state = StateDir::new(&template(work)).map_err(err)?;
    state.install(&model).map_err(err)?;
    drop(model);
    let (engine, _) = Engine::durable(state, DEFAULT_REQUEST_CAP).map_err(err)?;
    let earlier = TABLE.rows(seed, STREAM_WAL, WAL_ROWS);
    for i in 0..earlier.len() {
        engine.neighbors(earlier.row(i)).map_err(err)?;
    }
    let mut out = Outcome::default();
    out.put("fit_s", median(&fits), "s");
    Ok(out)
}

/// A fresh copy of the template state directory.
fn fresh_state(work: &Path, name: &str) -> Result<PathBuf, String> {
    let dir = work.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(err)?;
    for entry in std::fs::read_dir(template(work)).map_err(err)? {
        let entry = entry.map_err(err)?;
        std::fs::copy(entry.path(), dir.join(entry.file_name())).map_err(err)?;
    }
    Ok(dir)
}

/// Server start-up as the serving binary does it with `--state-dir`.
fn start(dir: &Path) -> Result<(Arc<EngineSlot>, gnn4tdl_serve::Server), String> {
    let state = StateDir::new(dir).map_err(err)?;
    let (engine, recovery) = Engine::durable(state, DEFAULT_REQUEST_CAP).map_err(err)?;
    if recovery.replayed != WAL_ROWS {
        return Err(format!("recovery replayed {} WAL rows, expected {WAL_ROWS}", recovery.replayed));
    }
    let slot = EngineSlot::new(engine);
    slot.compact_if_needed().map_err(err)?;
    let config = ServerConfig { workers: WORKERS, queue_cap: 4, ..ServerConfig::default() };
    let server = serve(Arc::clone(&slot), config).map_err(err)?;
    Ok((slot, server))
}

/// One answered request, as the client saw it.
struct Answer {
    status: u16,
    generation: Option<u64>,
    probas: Vec<Vec<f32>>,
    ms: f64,
}

/// The client: sends the stream in order on one keep-alive connection,
/// each request after the previous answer (closed loop).
fn drive(addr: SocketAddr, stream: &[Request]) -> Result<Vec<Answer>, String> {
    let mut conn = TcpStream::connect(addr).map_err(err)?;
    conn.set_nodelay(true).map_err(err)?;
    conn.set_read_timeout(Some(Duration::from_secs(60))).map_err(err)?;
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];
    let mut answers = Vec::with_capacity(stream.len());
    for request in stream {
        let t = Instant::now();
        conn.write_all(&request.raw).map_err(err)?;
        let response = loop {
            if let Some((resp, used)) = http::parse_response(&buf)? {
                buf.drain(..used);
                break resp;
            }
            let n = conn.read(&mut chunk).map_err(err)?;
            if n == 0 {
                return Err("the server closed the connection mid-stream".into());
            }
            buf.extend_from_slice(&chunk[..n]);
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let body = String::from_utf8_lossy(&response.body);
        let key = if request.rows.len() == 1 { "proba" } else { "probas" };
        answers.push(Answer {
            status: response.status,
            generation: response.headers.get("x-snapshot-generation").and_then(|g| g.parse().ok()),
            probas: if response.status == 200 {
                float_arrays(&body, key).unwrap_or_default()
            } else {
                Vec::new()
            },
            ms,
        });
    }
    Ok(answers)
}

/// The float array (or array of arrays) after `"key":` in a response
/// body, read without the program's JSON parser.
fn float_arrays(body: &str, key: &str) -> Option<Vec<Vec<f32>>> {
    let start = body.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = body[start..].trim_start().strip_prefix('[')?;
    let nested = rest.trim_start().starts_with('[');
    let mut arrays = Vec::new();
    let mut tail = rest;
    loop {
        let inner_start = if nested { tail.find('[')? + 1 } else { 0 };
        let inner_end = inner_start + tail[inner_start..].find(']')?;
        let values = tail[inner_start..inner_end]
            .split(',')
            .map(|v| v.trim().parse::<f32>().ok())
            .collect::<Option<Vec<f32>>>()?;
        arrays.push(values);
        tail = &tail[inner_end + 1..];
        if !nested || tail.trim_start().starts_with(']') {
            return Some(arrays);
        }
    }
}

/// Index of the first request answered by the compacted generation: the
/// request after the one whose rows bring the retained count to the cap.
fn first_request_after_compaction() -> usize {
    let mut retained = WAL_ROWS;
    for r in 0..STREAM.requests {
        retained += STREAM.rows_in(r);
        if retained >= DEFAULT_REQUEST_CAP {
            return r + 1;
        }
    }
    STREAM.requests
}

/// One measured round.
pub fn round(seed: u64, work: &Path) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = round_into(seed, work, &mut out) {
        out.check(false, || e);
    }
    out
}

fn round_into(seed: u64, work: &Path, out: &mut Outcome) -> Result<(), String> {
    parallel::set_threads(crate::COMPUTE_THREADS);
    let rows = request_rows(seed);
    let stream = gen::request_stream(&rows, &STREAM);
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut running = None;
    for i in 0..SETUP_REPEATS {
        let dir = fresh_state(work, &format!("state-{}-{i}", std::process::id()))?;
        let t = Instant::now();
        let started = start(&dir)?;
        setups.push(t.elapsed().as_secs_f64());
        if let Some((_, server)) = running.replace(started) {
            server.shutdown();
        }
    }
    let (slot, server) = running.expect("SETUP_REPEATS > 0");
    let t = Instant::now();
    let answers = drive(server.addr(), &stream);
    let stream_s = t.elapsed().as_secs_f64();
    let peak = peak_rss_mib();
    server.shutdown();
    let answers = answers?;
    let final_generation = slot.current().generation();
    drop(slot);

    out.attempted = stream.len() as u64;
    out.failed = answers.iter().filter(|a| a.status != 200).count() as u64;
    let failed = out.failed;
    out.check(failed == 0, || format!("{failed} of {} requests were not answered 200", stream.len()));
    let mut hits = 0usize;
    let mut answered = 0usize;
    let (mut single_ms, mut batch_ms) = (Vec::new(), Vec::new());
    for (request, answer) in stream.iter().zip(&answers) {
        if answer.status != 200 {
            continue;
        }
        if answer.probas.len() != request.rows.len() {
            out.check(false, || {
                format!("{} probability rows for {} request rows", answer.probas.len(), request.rows.len())
            });
            continue;
        }
        for (proba, i) in answer.probas.iter().zip(request.rows.clone()) {
            if let Err(e) = reference::check_proba(proba, CLASSES) {
                out.check(false, || e);
            }
            answered += 1;
            hits += usize::from(argmax(proba) == rows.labels[i]);
        }
        if request.rows.len() == 1 { &mut single_ms } else { &mut batch_ms }.push(answer.ms);
    }
    let switch = first_request_after_compaction();
    let generations: Vec<Option<u64>> = answers.iter().map(|a| a.generation).collect();
    let expected = |r: usize| Some(u64::from(r >= switch));
    out.check(final_generation == 1 && (0..answers.len()).all(|r| generations[r] == expected(r)), || {
        format!("expected exactly one compaction, visible from request {switch}; final generation {final_generation}")
    });

    let accuracy = hits as f64 / answered.max(1) as f64;
    let corpus = corpus(seed);
    let split = split(seed);
    let labelled: Vec<usize> = split.train.iter().chain(&split.val).copied().collect();
    let ncm = reference::NearestMean::fit(&corpus, &labelled, CLASSES);
    let ids: Vec<usize> = (0..rows.len()).collect();
    let reference = ncm.accuracy(&rows, &ids);
    eprintln!("perfbench: served accuracy {accuracy:.4}, nearest-class-mean reference {reference:.4}");
    out.check(accuracy >= reference - ACCURACY_MARGIN, || {
        format!("served accuracy {accuracy:.4} is below the nearest-class-mean reference {reference:.4} less {ACCURACY_MARGIN}")
    });
    oracle_checks(work, &rows, &stream, &answers[..switch], out)?;

    let tail = stats::tail(&single_ms);
    out.check(tail.map(|(p, _)| p) == Some(99.0), || {
        format!("{} single-row samples do not support a p99", single_ms.len())
    });
    out.put("setup_s", median(&setups), "s");
    out.put("accuracy", accuracy, "ratio");
    out.put("peak_rss_mb", peak, "MiB");
    out.put("rows_per_s", answered as f64 / stream_s, "1/s");
    out.put("req_p50_ms", median(&single_ms), "ms");
    out.put("req_p99_ms", tail.map_or(f64::NAN, |(_, v)| v), "ms");
    out.put("batch_p50_ms", median(&batch_ms), "ms");
    Ok(())
}

/// Exact-neighbor full-graph oracle on sampled rows served before the
/// compaction, and the sampled recall of the serving index.
fn oracle_checks(
    work: &Path,
    rows: &Rows,
    stream: &[Request],
    answers: &[Answer],
    out: &mut Outcome,
) -> Result<(), String> {
    let state = StateDir::new(&template(work)).map_err(err)?;
    let model = ServableModel::load(&state.snapshot_path(0)).map_err(err)?;
    let mut checked = 0usize;
    let mut agree = 0usize;
    for (r, (request, answer)) in stream.iter().zip(answers).enumerate() {
        if request.rows.len() != 1 || r % ORACLE_EVERY != 0 || answer.probas.len() != 1 {
            continue;
        }
        let row = rows.row(request.rows.start);
        let neighbors: Vec<usize> = model.exact_neighbors(row).into_iter().map(|(i, _)| i).collect();
        let full = model.predict_full(row, &neighbors).map_err(err)?;
        checked += 1;
        agree += usize::from(argmax(&full.proba) == argmax(&answer.probas[0]));
    }
    let rate = agree as f64 / checked.max(1) as f64;
    eprintln!("perfbench: oracle agreement {agree}/{checked}");
    out.check(checked > 0 && rate >= ORACLE_AGREEMENT_FLOOR, || {
        format!("served classes agree with the exact full-graph oracle on {agree} of {checked} rows, below {ORACLE_AGREEMENT_FLOOR}")
    });
    let recall = sampled_recall(&model, rows);
    out.check(recall >= RECALL_FLOOR, || {
        format!("serving-index recall@{K} {recall:.4} is below {RECALL_FLOOR}")
    });
    Ok(())
}

/// Recall@k of an index built as the engine builds it, for request rows
/// queried against the corpus, against brute force.
fn sampled_recall(model: &ServableModel, rows: &Rows) -> f64 {
    let IndexKind::Hnsw { m, ef_construction, ef_search, seed } = INDEX else {
        unreachable!("serving uses HNSW")
    };
    let index = HnswIndex::build(&model.features, Similarity::Euclidean, m, ef_construction, ef_search, seed);
    recall_on(&index, model, rows)
}

fn recall_on(index: &dyn NeighborIndex, model: &ServableModel, rows: &Rows) -> f64 {
    let queries = reference::sample_ids(rows.len(), 200);
    let q = Matrix::from_vec(rows.len(), rows.dim, rows.x.clone());
    let corpus = model.features.data();
    let n = model.corpus_len();
    queries
        .iter()
        .map(|&i| {
            let approx: Vec<usize> = index.query_k(&q, i, K, None).into_iter().map(|(j, _)| j).collect();
            // Brute force over corpus + query row, the query's own id excluded.
            let mut x = corpus.to_vec();
            x.extend_from_slice(rows.row(i));
            reference::recall(&approx, &reference::brute_knn(&x, rows.dim, n, K))
        })
        .sum::<f64>()
        / queries.len() as f64
}

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// The traced round: the request stream replayed in process through the
/// same calls the server makes per request, each timed; plus start-up
/// stages and single-call probes. `http_p50_ms` is the untraced round's
/// single-row median, which the layer times are measured against.
pub fn trace(seed: u64, work: &Path, http_p50_ms: f64) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = trace_into(seed, work, http_p50_ms, &mut out) {
        out.check(false, || e);
    }
    out
}

fn trace_into(seed: u64, work: &Path, http_p50_ms: f64, out: &mut Outcome) -> Result<(), String> {
    parallel::set_threads(crate::COMPUTE_THREADS);
    let rows = request_rows(seed);
    let stream = gen::request_stream(&rows, &STREAM);
    let snapshot = StateDir::new(&template(work)).map_err(err)?.snapshot_path(0);

    // Start-up stages.
    let mut load_ms = Vec::new();
    let mut model = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        model = Some(ServableModel::load(&snapshot).map_err(err)?);
        load_ms.push(us_since(t) / 1e3);
    }
    let model = model.expect("SETUP_REPEATS > 0");
    out.put("servable.load_ms", median(&load_ms), "ms");
    let mut recover_ms = Vec::new();
    for i in 0..SETUP_REPEATS {
        let dir = fresh_state(work, &format!("recover-{i}"))?;
        let t = Instant::now();
        let recovered = Wal::recover(&dir.join("wal.log"), 0, rows.dim).map_err(err)?;
        recover_ms.push(us_since(t) / 1e3);
        out.check(recovered.rows.len() == WAL_ROWS, || {
            format!("WAL recovery found {} rows", recovered.rows.len())
        });
    }
    out.put("wal.recover_ms", median(&recover_ms), "ms");
    let IndexKind::Hnsw { m, ef_construction, ef_search, seed: index_seed } = INDEX else {
        unreachable!("serving uses HNSW")
    };
    let t = Instant::now();
    let mut index = HnswIndex::build_owned(
        &model.features,
        Similarity::Euclidean,
        m,
        ef_construction,
        ef_search,
        index_seed,
    );
    out.put("construct.hnsw_build_ms", us_since(t) / 1e3, "ms");
    let recall = recall_on(&index, &model, &rows);
    out.put("construct.hnsw_recall", recall, "ratio");
    out.check(recall >= RECALL_FLOOR, || {
        format!("serving-index recall@{K} {recall:.4} is below {RECALL_FLOOR}")
    });
    let insert_us: Vec<f64> = (0..500)
        .map(|i| {
            let t = Instant::now();
            let _ = index.insert(rows.row(i));
            us_since(t)
        })
        .collect();
    out.put("construct.hnsw_insert_us", median(&insert_us), "us");
    drop(index);
    let mut wal = Wal::create(&work.join("append-probe.log"), 0, rows.dim).map_err(err)?;
    let append_us: Vec<f64> = (0..300)
        .map(|i| {
            let t = Instant::now();
            let _ = wal.append(rows.row(i));
            us_since(t)
        })
        .collect();
    out.put("wal.append_us", median(&append_us), "us");
    drop(wal);

    // The request stream through the engine, call by call.
    let dir = fresh_state(work, "engine")?;
    let (mut engine, _) =
        Engine::durable(StateDir::new(&dir).map_err(err)?, DEFAULT_REQUEST_CAP).map_err(err)?;
    let limits = http::Limits::default();
    let (mut http_us, mut json_us, mut neighbors_us, mut local_ms, mut batch_ms, mut compact_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut nodes = 0usize;
    pool::reset_global_stats();
    let rss_before = rss_mib();
    for request in &stream {
        let t = Instant::now();
        let http::ParseOutcome::Complete(parsed, _) = http::parse_request(&request.raw, &limits) else {
            return Err("a generated request did not parse as one complete HTTP request".into());
        };
        http_us.push(us_since(t));
        let text = std::str::from_utf8(&parsed.body).map_err(err)?;
        let t = Instant::now();
        json::parse(text)?;
        json_us.push(us_since(t));
        let ids = request.rows.clone();
        let mut sets = Vec::with_capacity(ids.len());
        for i in ids.clone() {
            let t = Instant::now();
            sets.push(engine.neighbors(rows.row(i)).map_err(err)?);
            neighbors_us.push(us_since(t));
        }
        if ids.len() == 1 {
            let t = Instant::now();
            let p = engine.model().predict_local(rows.row(ids.start), &sets[0]).map_err(err)?;
            local_ms.push(us_since(t) / 1e3);
            nodes += p.subgraph_nodes;
        } else {
            let batch: Vec<Vec<f32>> = ids.map(|i| rows.row(i).to_vec()).collect();
            let t = Instant::now();
            engine.model().predict_local_batch(&batch, &sets).map_err(err)?;
            batch_ms.push(us_since(t) / 1e3);
        }
        if engine.needs_compaction() {
            let t = Instant::now();
            engine = engine.compact().map_err(err)?;
            compact_ms.push(us_since(t) / 1e3);
        }
    }
    let rss_growth = rss_mib() - rss_before;
    out.attempted = stream.len() as u64;
    out.check(compact_ms.len() == 1, || {
        format!("{} compactions in the stream, expected 1", compact_ms.len())
    });
    let stats = pool::global_stats();
    let (neighbors, local) = (median(&neighbors_us), median(&local_ms));
    let (http_parse, json_parse) = (median(&http_us), median(&json_us));
    out.put("http.parse_us", http_parse, "us");
    out.put("json.parse_us", json_parse, "us");
    out.put("engine.neighbors_us", neighbors, "us");
    out.put("servable.predict_local_ms", local, "ms");
    out.put("servable.subgraph_nodes", nodes as f64 / local_ms.len().max(1) as f64, "count");
    out.put("servable.predict_batch_ms", median(&batch_ms), "ms");
    out.put("engine.compact_ms", median(&compact_ms), "ms");
    out.put("pool.rss_growth_mb", rss_growth, "MiB");
    out.put("pool.hit_rate", stats.hit_rate(), "ratio");
    let in_process_ms = (http_parse + json_parse + neighbors) / 1e3 + local;
    out.put("server.transport_ms", http_p50_ms - neighbors / 1e3 - local, "ms");
    out.put("trace.coverage", in_process_ms / http_p50_ms, "ratio");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_single_and_batch_probabilities() {
        let single = "{\"pred\": 1, \"proba\": [0.25,0.75]}";
        assert_eq!(float_arrays(single, "proba"), Some(vec![vec![0.25, 0.75]]));
        let batch = "{\"preds\": [1,0], \"probas\": [[0.25,0.75],[1,0]]}";
        assert_eq!(float_arrays(batch, "probas"), Some(vec![vec![0.25, 0.75], vec![1.0, 0.0]]));
        assert_eq!(float_arrays("{\"error\": \"x\"}", "proba"), None);
    }

    #[test]
    fn the_stream_crosses_the_cap_once() {
        let switch = first_request_after_compaction();
        assert!(switch < STREAM.requests, "the stream must reach the request cap");
        assert!(WAL_ROWS + STREAM.total_rows() < 2 * DEFAULT_REQUEST_CAP, "and reach it only once");
        assert_eq!(switch, 2625);
        assert!(STREAM.requests - STREAM.batches() >= 1000, "p99 needs at least 1000 single-row samples");
    }
}
