//! The traced run: spans recorded by the benchmark around each layer's
//! public calls, replaying the workload's own stream in-process, and the
//! per-layer numbers derived from them (mean busy time per call, counts,
//! self time). Spans stay in memory and are written out at the end.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

use deepjoin::{DeepJoin, LiveLake};
use deepjoin_ann::Budget;
use deepjoin_serve::{protocol, QueryReply, Request, Response, WireHit};

use crate::gate::{column, Oracle};
use crate::streams::{Mutation, Query, K};

/// One timed call: `parent` indexes the span that caused it, and every
/// span of one request carries that request's id.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// Records spans when on; a disabled tracer only runs the closures, which
/// is the untraced baseline the overhead is measured against.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name` for request `request`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Mean span duration of `name`, µs (0 when never recorded).
    pub fn mean_us(&self, name: &str) -> f64 {
        let (sum, n) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0u64), |(sum, n), s| {
                (sum + (s.end_ns - s.start_ns), n + 1)
            });
        if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64 / 1e3
        }
    }

    /// Self time per span name, ns: each span's duration minus the part
    /// its children cover (children of one parent never overlap here —
    /// the replay is single-threaded).
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = out.entry(s.name).or_default();
            e.0 += (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            e.1 += 1;
        }
        out
    }

    /// Write every span as a tab-separated line.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\tname\tstart_ns\tend_ns\tparent\trequest")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

/// Work counts the query replay observed.
#[derive(Debug, Default, Clone, Copy)]
pub struct QueryCounts {
    pub queries: u64,
    pub tokens: u64,
    pub visited: u64,
}

/// Frame bytes through the real codec and back: encode, `write_frame`,
/// `read_frame`, decode.
fn round_trip_request(req: &Request) -> Request {
    let mut wire = Vec::new();
    protocol::write_frame(&mut wire, &req.encode()).expect("Vec write");
    let payload = protocol::read_frame(&mut wire.as_slice(), protocol::MAX_FRAME)
        .expect("frame reads back")
        .expect("one frame");
    Request::decode(&payload).expect("request decodes")
}

fn round_trip_response(resp: &Response) -> Response {
    let mut wire = Vec::new();
    protocol::write_frame(&mut wire, &resp.encode()).expect("Vec write");
    let payload = protocol::read_frame(&mut wire.as_slice(), protocol::MAX_FRAME)
        .expect("frame reads back")
        .expect("one frame");
    Response::decode(&payload).expect("response decodes")
}

/// Replay `stream` one query at a time through contextualize, tokenize,
/// encode, ANN search, the exact scan and the wire codec — each a span
/// under one `query` span per request.
pub fn replay_queries(oracle: &Oracle, stream: &[Query], t: &mut Tracer) -> QueryCounts {
    let model: &DeepJoin = &oracle.model;
    let unlimited = Budget::unlimited();
    let mut counts = QueryCounts::default();
    for (rid, q) in stream.iter().enumerate() {
        let rid = rid as u64;
        t.span("query", rid, |t| {
            let col = column(q);
            let text = t.span("core.text.contextualize", rid, |_| {
                model.textizer().transform(&col)
            });
            let tokens = t.span("lake.tokenize", rid, |_| {
                model
                    .vocabulary()
                    .encode_hybrid_bucketed(&text, model.config().oov_buckets)
            });
            let v = t.span("nn.encode", rid, |_| {
                let mut v = model.encoder().encode(&tokens);
                deepjoin_embed::vector::normalize(&mut v);
                v
            });
            let ladder = t.span("ann.search", rid, |_| {
                model.search_embedded_budgeted_filtered(&v, K, &unlimited, None)
            });
            let exact = t.span("ann.exact_scan", rid, |_| {
                oracle.flat.search_budgeted(&v, K, &unlimited)
            });
            t.span("serve.codec", rid, |_| {
                let req = Request::Query {
                    name: q.name.clone(),
                    cells: q.cells.clone(),
                    k: K as u32,
                    tenant: None,
                    request_id: Some(rid),
                };
                let back = round_trip_request(&req);
                let reply = Response::QueryFor {
                    request_id: rid,
                    reply: Ok(QueryReply {
                        health_code: 0,
                        health_label: "hnsw".to_string(),
                        degraded: false,
                        complete: ladder.complete,
                        via_fallback: ladder.via_fallback,
                        generation: 1,
                        indexed: oracle.repo.len() as u64,
                        visited: ladder.visited as u64,
                        hits: ladder
                            .hits
                            .iter()
                            .map(|sc| WireHit {
                                id: sc.id.0,
                                score: -sc.score as f32,
                                label: oracle.label(sc.id.0),
                            })
                            .collect(),
                    }),
                };
                std::hint::black_box((back, round_trip_response(&reply)));
            });
            std::hint::black_box(exact);
            counts.queries += 1;
            counts.tokens += tokens.len() as u64;
            counts.visited += ladder.visited as u64;
        });
    }
    counts
}

/// Replay `stream` in waves of `width`: the batched encoder (one thread,
/// as the server's encode pool) and the batched ladder search.
pub fn replay_waves(model: &DeepJoin, stream: &[Query], width: usize, t: &mut Tracer) -> u64 {
    let unlimited = Budget::unlimited();
    let mut visited = 0u64;
    for (w, wave) in stream.chunks(width).enumerate() {
        let rid = w as u64;
        t.span("wave", rid, |t| {
            let cols: Vec<_> = wave.iter().map(column).collect();
            let vs = t.span("nn.encode_wave", rid, |_| {
                deepjoin::batch::encode_queries_parallel(model, &cols, 1)
            });
            let refs: Vec<&[f32]> = vs.iter().map(Vec::as_slice).collect();
            let ladders = t.span("ann.search_wave", rid, |_| {
                model.search_embedded_batch_budgeted_filtered(&refs, K, &unlimited, None)
            });
            visited += ladders.iter().map(|l| l.visited as u64).sum::<u64>();
        });
    }
    visited
}

/// Store-layer counts from the in-process mutation replay.
#[derive(Debug, Default, Clone, Copy)]
pub struct StoreCounts {
    pub flushes: u64,
    pub compactions: u64,
    /// Journal bytes per row added, summed over the journal just before
    /// each flush (drops journal too, so they count against the adds).
    pub wal_bytes_per_row: f64,
    pub live_rows: u64,
    pub slabs: u64,
}

/// Replay `mutations` against a fresh live lake in `dir` under the same
/// flush policy the server uses — flush every `flush_rows` rows, compact
/// at `compact_min_segs` segments — then search the resulting live view
/// with `stream`.
pub fn replay_store(
    oracle: &Oracle,
    mutations: &[Mutation],
    stream: &[Query],
    dir: &Path,
    flush_rows: usize,
    compact_min_segs: u32,
    t: &mut Tracer,
) -> io::Result<StoreCounts> {
    let model = &oracle.model;
    let io: deepjoin_store::SharedIo = std::sync::Arc::new(deepjoin_store::StdIo);
    std::fs::create_dir_all(dir)?;
    // Auto-flush is out of reach here; the replay flushes explicitly.
    let lake = LiveLake::open_with_flush_rows(io, dir.to_path_buf(), model, usize::MAX)?.lake;
    let mut counts = StoreCounts::default();
    let (mut unflushed, mut flushed_rows, mut flushed_wal) = (0u64, 0u64, 0u64);
    for (i, m) in mutations.iter().enumerate() {
        let rid = i as u64;
        match m {
            Mutation::Add { title, columns } => {
                t.span("store.add_table", rid, |_| {
                    lake.add_table(model, title, columns)
                })?;
                unflushed += columns.len() as u64;
            }
            Mutation::Drop { title } => {
                let base_ids: Vec<u32> = oracle
                    .repo
                    .iter()
                    .filter(|(_, c)| &c.meta.table_title == title)
                    .map(|(id, _)| id.0)
                    .collect();
                t.span("store.drop_table", rid, |_| {
                    lake.drop_table(title, &base_ids)
                })?;
            }
        }
        if unflushed >= flush_rows as u64 {
            flushed_wal += lake.stats().wal_bytes;
            flushed_rows += unflushed;
            if t.span("store.flush", rid, |_| lake.flush())? {
                counts.flushes += 1;
            }
            unflushed = 0;
        }
        if lake.stats().segments >= compact_min_segs
            && t.span("store.compact", rid, |_| lake.compact())?
        {
            counts.compactions += 1;
        }
    }
    counts.wal_bytes_per_row = flushed_wal as f64 / flushed_rows.max(1) as f64;
    let view = lake.view();
    counts.live_rows = view.live_rows() as u64;
    counts.slabs = view.slab_count() as u64;
    let unlimited = Budget::unlimited();
    for (rid, q) in stream.iter().enumerate() {
        let v = model.embed_column(&column(q));
        let hits = t.span("core.live.search", rid as u64, |_| {
            view.search(&v, K, &unlimited)
        });
        std::hint::black_box(hits);
    }
    Ok(counts)
}
