//! The named inputs: the `webtable-20k` lake, the held-out query pools,
//! the Zipf stream and the mutation stream, and the per-rung send plans
//! built from them. Everything here is a pure function of the workload
//! seed (and the fixed lake seed), so the same seed replays the same run.

use std::collections::HashSet;

use deepjoin_lake::corpus::Corpus;
use deepjoin_lake::zipf::Zipf;
use deepjoin_serve::{BatchQuery, Request};
use rand::stream::stream_rng;

/// Top-k asked of every query.
pub const K: usize = 10;

/// One query as it travels on the wire: the column name and its cells.
/// The server's cache and wave dedup key on exactly this pair.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Query {
    pub name: String,
    pub cells: Vec<String>,
}

/// Purposes that derive independent RNG streams from one workload seed.
#[derive(Clone, Copy)]
pub enum Stream {
    Traffic = 1,
    Zipf = 2,
    Mutations = 3,
    Probe = 4,
}

fn seed_for(seed: u64, stream: Stream) -> u64 {
    rand::stream::mix(seed, stream as u64)
}

/// `n` distinct held-out columns: fresh draws from the lake's catalog that
/// were never indexed (the paper's query protocol, §5.1), generated with a
/// seed of their own.
pub fn held_out(corpus: &Corpus, n: usize, seed: u64, stream: Stream) -> Vec<Query> {
    let mut seen = HashSet::with_capacity(n);
    let mut out = Vec::with_capacity(n);
    let mut round = 0u64;
    while out.len() < n {
        let draw_seed = rand::stream::mix(seed_for(seed, stream), round);
        for (col, _) in corpus.sample_queries(n - out.len(), draw_seed) {
            let q = Query {
                name: col.meta.column_name.clone(),
                cells: col.cells.clone(),
            };
            if seen.insert(q.clone()) {
                out.push(q);
            }
        }
        round += 1;
    }
    out
}

/// `n` Zipf(`s`) draws over `0..pool`: index 0 is the hottest column.
pub fn zipf_stream(pool: usize, s: f64, n: usize, seed: u64) -> Vec<usize> {
    let zipf = Zipf::new(pool, s);
    let mut rng = stream_rng(seed_for(seed, Stream::Zipf), 0);
    (0..n).map(|_| zipf.sample(&mut rng)).collect()
}

/// A live-lake mutation as sent over the wire.
#[derive(Debug, Clone)]
pub enum Mutation {
    Add {
        title: String,
        columns: Vec<(String, Vec<String>)>,
    },
    Drop {
        title: String,
    },
}

impl Mutation {
    pub fn request(&self) -> Request {
        match self {
            Mutation::Add { title, columns } => Request::AddTable {
                title: title.clone(),
                columns: columns.clone(),
            },
            Mutation::Drop { title } => Request::DropTable {
                title: title.clone(),
            },
        }
    }
}

/// Columns per added table.
const ADD_COLUMNS: usize = 3;
/// A drop removes the oldest surviving added table once this many are live.
const LIVE_TABLES_KEPT: usize = 4;
/// Every this-many drops, a base table is dropped instead of a live one, so
/// base-index tombstones are exercised too.
const BASE_DROP_EVERY: usize = 5;

/// `n` mutations, alternating add and drop once [`LIVE_TABLES_KEPT`]
/// added tables are live. Adds carry held-out columns under fresh titles;
/// drops remove the oldest surviving added table, and every
/// [`BASE_DROP_EVERY`]th drop removes a base table (from
/// `base_titles`, which must name tables with a unique title so one drop
/// removes exactly one indexed column).
pub fn mutation_stream(
    corpus: &Corpus,
    n: usize,
    seed: u64,
    base_titles: &[String],
) -> Vec<Mutation> {
    // At most every op is an add.
    let pool = held_out(corpus, n * ADD_COLUMNS, seed, Stream::Mutations);
    let mut rng = stream_rng(seed_for(seed, Stream::Mutations), 1);
    let mut live: std::collections::VecDeque<String> = Default::default();
    let mut dropped_base = HashSet::new();
    let (mut added, mut drops) = (0usize, 0usize);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        // Alternate add and drop once enough added tables are live to drop
        // one; until then (and whenever a drop has no target) add. The
        // server refuses a drop that matches no column, so every drop names
        // a table that exists.
        let want_drop = out.len() % 2 == 1 && live.len() >= LIVE_TABLES_KEPT;
        if !want_drop {
            let title = format!("ingest-{seed:x}-{added}");
            let columns = pool[added * ADD_COLUMNS..(added + 1) * ADD_COLUMNS]
                .iter()
                .enumerate()
                .map(|(i, q)| (format!("{}_{i}", q.name), q.cells.clone()))
                .collect();
            live.push_back(title.clone());
            added += 1;
            out.push(Mutation::Add { title, columns });
        } else {
            drops += 1;
            let base = (drops % BASE_DROP_EVERY == 0 && !base_titles.is_empty())
                .then(|| {
                    use rand::Rng;
                    base_titles[rng.gen_range(0..base_titles.len())].clone()
                })
                .filter(|t| dropped_base.insert(t.clone()));
            let title = base.unwrap_or_else(|| live.pop_front().expect("enough live tables"));
            out.push(Mutation::Drop { title });
        }
    }
    out
}

/// What one slot of a send plan is: a query (by index into the workload's
/// query pool) or a mutation (by index into its mutation stream).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotKind {
    Query(usize),
    Mutation(usize),
}

/// One scheduled write: a whole encoded frame for connection `conn`, due
/// `due_ns` after its rung starts, answering slots `first..first + len`.
pub struct Op {
    pub due_ns: u64,
    pub conn: usize,
    pub frame: Vec<u8>,
    pub first: usize,
    pub len: usize,
}

/// One offered rate on the ladder and the writes that realize it.
pub struct Rung {
    /// Offered query rate, queries per second.
    pub rate: f64,
    pub ops: Vec<Op>,
    /// Slots of this rung (queries and mutations), a contiguous range.
    pub slots: std::ops::Range<usize>,
}

/// How a workload turns an offered rate into frames.
pub struct Shape<'a> {
    /// Queries per frame: 1 sends tagged `Query` frames, more sends
    /// `QueryBatch` frames of this many members.
    pub batch: usize,
    /// Query pool index per query slot, consumed in order across rungs.
    pub query_order: &'a [usize],
    pub queries: &'a [Query],
    /// Mutations per second on connection 1 (0 = none).
    pub mutation_rate: f64,
    pub mutations: &'a [Mutation],
}

/// Frame one request exactly as it goes on the wire.
pub fn frame(request: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    deepjoin_serve::protocol::write_frame(&mut out, &request.encode())
        .expect("writing to a Vec cannot fail");
    out
}

/// Builds the ladder's send plan, numbering slots in plan order. Query
/// slots take pool indices from `shape.query_order` in order; planning
/// fails if the order runs out.
pub struct Planner<'a> {
    shape: Shape<'a>,
    pub slots: Vec<SlotKind>,
    next_query: usize,
    next_mutation: usize,
}

impl<'a> Planner<'a> {
    pub fn new(shape: Shape<'a>) -> Self {
        Planner {
            shape,
            slots: Vec::new(),
            next_query: 0,
            next_mutation: 0,
        }
    }

    /// One query frame (`shape.batch` members) due at `due_ns`.
    fn query_frame(&mut self, due_ns: u64) -> Result<Op, String> {
        let shape = &self.shape;
        if self.next_query + shape.batch > shape.query_order.len() {
            return Err(format!(
                "query stream of {} exhausted",
                shape.query_order.len()
            ));
        }
        let first = self.slots.len();
        let mut members: Vec<BatchQuery> = Vec::with_capacity(shape.batch);
        for m in 0..shape.batch {
            let q = shape.query_order[self.next_query + m];
            self.slots.push(SlotKind::Query(q));
            members.push(BatchQuery {
                request_id: (first + m) as u64,
                name: shape.queries[q].name.clone(),
                cells: shape.queries[q].cells.clone(),
                k: K as u32,
                tenant: None,
            });
        }
        self.next_query += shape.batch;
        let request = match <[BatchQuery; 1]>::try_from(members) {
            Ok([q]) => Request::Query {
                name: q.name,
                cells: q.cells,
                k: q.k,
                tenant: None,
                request_id: Some(q.request_id),
            },
            Err(members) => Request::QueryBatch { queries: members },
        };
        Ok(Op {
            due_ns,
            conn: 0,
            frame: frame(&request),
            first,
            len: shape.batch,
        })
    }

    /// Rungs of `(rate, seconds)` with evenly spaced query frames, and the
    /// mutation stream at `shape.mutation_rate` beside them.
    pub fn ladder(&mut self, ladder: &[(f64, f64)]) -> Result<Vec<Rung>, String> {
        let mut rungs = Vec::with_capacity(ladder.len());
        for &(rate, step_s) in ladder {
            let first_slot = self.slots.len();
            let batch = self.shape.batch as f64;
            let frames = ((rate * step_s) / batch).round() as usize;
            let mut ops = (0..frames)
                .map(|f| self.query_frame((f as f64 * batch / rate * 1e9) as u64))
                .collect::<Result<Vec<_>, _>>()?;
            let mutation_rate = self.shape.mutation_rate;
            for m in 0..(mutation_rate * step_s).round() as usize {
                let Some(mutation) = self.shape.mutations.get(self.next_mutation) else {
                    return Err(format!(
                        "mutation stream of {} exhausted",
                        self.shape.mutations.len()
                    ));
                };
                self.slots.push(SlotKind::Mutation(self.next_mutation));
                self.next_mutation += 1;
                ops.push(Op {
                    due_ns: ((m as f64 + 0.5) / mutation_rate * 1e9) as u64,
                    conn: 1,
                    frame: frame(&mutation.request()),
                    first: self.slots.len() - 1,
                    len: 1,
                });
            }
            ops.sort_by_key(|op| op.due_ns);
            rungs.push(Rung {
                rate,
                ops,
                slots: first_slot..self.slots.len(),
            });
        }
        Ok(rungs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_stream_is_deterministic_per_seed() {
        let a = zipf_stream(4096, 1.0, 2_000, 7);
        assert_eq!(
            a,
            zipf_stream(4096, 1.0, 2_000, 7),
            "same seed, same stream"
        );
        assert_ne!(
            a,
            zipf_stream(4096, 1.0, 2_000, 8),
            "another seed, another stream"
        );
        assert!(a.iter().all(|&i| i < 4096));
        // Head-heavy: the hottest item is drawn far more than a uniform
        // share (2000 / 4096 < 1).
        let hot = a.iter().filter(|&&i| i == 0).count();
        assert!(hot > 100, "item 0 drawn {hot} times");
    }

    #[test]
    fn planner_spaces_arrivals_and_numbers_slots() {
        let queries: Vec<Query> = (0..100)
            .map(|i| Query {
                name: format!("q{i}"),
                cells: vec![format!("c{i}")],
            })
            .collect();
        let order: Vec<usize> = (0..100).collect();
        let shape = Shape {
            batch: 4,
            query_order: &order,
            queries: &queries,
            mutation_rate: 0.0,
            mutations: &[],
        };
        let mut planner = Planner::new(shape);
        let rungs = planner
            .ladder(&[(40.0, 0.5), (80.0, 0.5)])
            .expect("enough queries");
        assert_eq!(rungs[0].ops.len(), 5);
        assert_eq!(rungs[1].ops.len(), 10);
        assert_eq!(rungs[1].slots, 20..60);
        assert_eq!(rungs[0].ops[1].due_ns, 100_000_000);
        assert_eq!(planner.slots.len(), 60);
        assert_eq!(planner.slots[21], SlotKind::Query(21));
        assert!(planner.ladder(&[(100.0, 1.0)]).is_err(), "stream exhausted");
    }
}
