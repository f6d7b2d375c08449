//! The correctness gate and the quality metrics. Every served answer is
//! checked against the in-process model loaded from the same artifact;
//! recall is measured against an exact flat scan over the same
//! embeddings, precision against brute-force equi-joinability.

use std::sync::Arc;

use deepjoin::{DeepJoin, LadderSearch};
use deepjoin_ann::index::TopK;
use deepjoin_ann::{Budget, FlatIndex, Metric, VectorIndex};
use deepjoin_lake::column::{Column, ColumnId, ColumnMeta};
use deepjoin_lake::live_oracle::{MutationOracle, OracleColumn};
use deepjoin_lake::repository::Repository;
use deepjoin_serve::QueryReply;

use crate::streams::{Query, K};

/// The query column exactly as the server builds it from the wire: the
/// cells plus the column name, no table metadata.
pub fn column(q: &Query) -> Column {
    Column::new(
        q.cells.clone(),
        ColumnMeta {
            column_name: q.name.clone(),
            ..ColumnMeta::default()
        },
    )
}

/// A hit reduced to what must match bit for bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExactHit {
    pub id: u32,
    pub distance_bits: u32,
    pub label: String,
}

/// The in-process model and the exact oracles over its embeddings.
pub struct Oracle {
    pub model: DeepJoin,
    pub repo: Arc<Repository>,
    pub flat: FlatIndex,
}

impl Oracle {
    pub fn new(model: DeepJoin, repo: Arc<Repository>, embeddings: &[f32]) -> Self {
        let dim = model.config().dim;
        let mut flat = FlatIndex::new(dim, Metric::L2).with_unit_norm(true);
        flat.add_batch(embeddings);
        Oracle { model, repo, flat }
    }

    pub fn label(&self, id: u32) -> String {
        match self.repo.get(ColumnId(id)) {
            Some(c) => format!("{}.{}", c.meta.table_title, c.meta.column_name),
            None => format!("col#{id}"),
        }
    }

    fn ladder_hits(&self, ladder: &LadderSearch) -> Vec<ExactHit> {
        ladder
            .hits
            .iter()
            .map(|sc| ExactHit {
                id: sc.id.0,
                distance_bits: ((-sc.score) as f32).to_bits(),
                label: self.label(sc.id.0),
            })
            .collect()
    }

    /// The in-process answer for `q` and, when `exact` is set, the exact
    /// flat-scan top-k ids over the same embeddings.
    pub fn answer(&self, q: &Query, exact: bool) -> (Vec<ExactHit>, Option<Vec<u32>>) {
        let v = self.model.embed_column(&column(q));
        let ladder = self
            .model
            .search_embedded_budgeted(&v, K, &Budget::unlimited());
        let exact = exact.then(|| self.flat.search(&v, K).into_iter().map(|n| n.id).collect());
        (self.ladder_hits(&ladder), exact)
    }

    /// [`Oracle::answer`] for many queries on `threads` threads.
    pub fn answers(
        &self,
        queries: &[(&Query, bool)],
        threads: usize,
    ) -> Vec<(Vec<ExactHit>, Option<Vec<u32>>)> {
        par_map(queries, threads, |(q, exact)| self.answer(q, *exact))
    }

    /// Precision@k of served ids against brute-force equi-joinability
    /// ground truth (the paper's metric).
    pub fn precision(&self, q: &Query, served: &[u32]) -> f64 {
        let truth: Vec<u32> =
            deepjoin_lake::joinability::brute_force_topk(&self.repo, &column(q), K)
                .into_iter()
                .map(|sc| sc.id.0)
                .collect();
        deepjoin_metrics::precision_at_k(served, &truth, K)
    }

    /// Exact top-k ids over the base rows the live view still holds plus
    /// its live rows, merged the way the server merges them.
    pub fn exact_live(&self, view: &deepjoin::LiveView, q: &Query) -> Vec<u32> {
        let v = self.model.embed_column(&column(q));
        let unlimited = Budget::unlimited();
        let base = self
            .flat
            .search_budgeted_filtered(&v, K, &unlimited, Some(view.tombs()));
        let live = view.search(&v, K, &unlimited);
        let mut top = TopK::new(K);
        for n in base.hits.iter().chain(&live.hits) {
            top.push(n.id, n.distance);
        }
        top.into_sorted().into_iter().map(|n| n.id).collect()
    }

    /// Every column the live lake should still serve, as `table.column`
    /// labels in id order: base columns not dropped, then surviving live
    /// rows.
    pub fn served_labels(&self, view: &deepjoin::LiveView) -> Vec<String> {
        let mut labels: Vec<String> = (0..view.base_len())
            .filter(|&id| !view.tombs().contains(id))
            .map(|id| self.label(id))
            .collect();
        labels.extend(
            view.surviving()
                .into_iter()
                .map(|(_, t, c)| format!("{t}.{c}")),
        );
        labels
    }

    /// The mutation oracle seeded with the base lake.
    pub fn mutation_oracle(&self) -> MutationOracle {
        MutationOracle::with_base(self.repo.columns().iter().map(|c| OracleColumn {
            table: c.meta.table_title.clone(),
            name: c.meta.column_name.clone(),
            cells: c.cells.clone(),
        }))
    }
}

/// `f` over `items` on `threads` scoped threads, results in input order.
pub fn par_map<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let chunk = items.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|part| s.spawn(move || part.iter().map(f).collect::<Vec<_>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    })
}

/// A served reply as bit-exact hits.
pub fn served_hits(reply: &QueryReply) -> Vec<ExactHit> {
    reply
        .hits
        .iter()
        .map(|h| ExactHit {
            id: h.id,
            distance_bits: h.score.to_bits(),
            label: h.label.clone(),
        })
        .collect()
}

/// An answer under an unlimited budget must be whole: never degraded,
/// never partial, never rescued by the fallback scan.
pub fn check_flags(reply: &QueryReply) -> Result<(), String> {
    if reply.degraded || !reply.complete || reply.via_fallback {
        return Err(format!(
            "answer degraded={} complete={} via_fallback={} ({})",
            reply.degraded, reply.complete, reply.via_fallback, reply.health_label
        ));
    }
    Ok(())
}

/// Recall of `served` against `exact` (shares of the exact ids found).
pub fn recall(served: &[u32], exact: &[u32]) -> f64 {
    if exact.is_empty() {
        return 1.0;
    }
    let hit = exact.iter().filter(|id| served.contains(id)).count();
    hit as f64 / exact.len() as f64
}

/// Distance bits of a base-index hit: the graph scores candidates with
/// the pairwise squared-L2 kernel and reports the square root.
pub fn graph_distance_bits(q: &[f32], v: &[f32]) -> u32 {
    Metric::L2.distance(q, v).to_bits()
}

/// The two distance bit patterns a live-slab hit can carry. The slabs are
/// flat indexes over unit-norm rows, scored by the blocked kernel: rows in
/// a group of four take the grouped path, the last `len % 4` rows of a
/// slab the pairwise one. Which applies depends on where the row sits in
/// its slab at that moment, so a served live distance must equal one of
/// the two exactly.
pub fn flat_distance_bits(q: &[f32], v: &[f32]) -> [u32; 2] {
    [4, 1].map(|rows| {
        let mut index = FlatIndex::new(v.len(), Metric::L2).with_unit_norm(true);
        for _ in 0..rows {
            index.add_batch(v);
        }
        index.search(q, 1)[0].distance.to_bits()
    })
}

/// Table title of a `table.column` label.
pub fn label_table(label: &str) -> &str {
    label.rsplit_once('.').map_or(label, |(t, _)| t)
}
