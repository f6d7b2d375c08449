//! Set-up, timed stage by stage: generate the named lake and write its lake
//! file, train the MPLite encoder the way `dj train` does (one epoch),
//! embed and index every column, write the artifact, then start the
//! serving process and wait for its first answer. Besides the wall time
//! of each stage, the CPU time of the whole set-up is taken.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use deepjoin::{DeepJoin, DeepJoinConfig, FineTuneConfig, JoinType};
use deepjoin_lake::corpus::{Corpus, CorpusConfig, CorpusProfile};
use deepjoin_lake::repository::Repository;
use deepjoin_serve::Request;
use deepjoin_store::{ArtifactIo, StdIo};

use crate::child::{self, ServeSpec, Served};
use crate::streams::K;
use crate::Workload;

/// The named lake every workload serves.
pub const LAKE_NAME: &str = "webtable-20k";
const LAKE_TABLES: usize = 20_000;
/// Fixed: the lake, and so the trained model, is the same on every run.
const LAKE_SEED: u64 = 20_000;
const TRAIN_EPOCHS: usize = 1;
/// Threads for the offline embedding and graph build (`dj train --threads`).
const BUILD_THREADS: usize = 2;
/// `dj train` samples its training columns with this seed.
const TRAIN_SAMPLE_SEED: u64 = 0x7EA1;

/// The lake with its repository; what every stage after generation reads.
pub struct Lake {
    pub corpus: Corpus,
    pub repo: Arc<Repository>,
}

/// Seconds spent per set-up stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimes {
    pub generate_s: f64,
    pub train_s: f64,
    pub index_s: f64,
    pub save_s: f64,
    /// Serving process start up to the first answer.
    pub serve_s: f64,
    /// CPU seconds of the whole set-up: this process from generation
    /// through the save, plus the serving process up to its first answer.
    pub cpu_s: f64,
}

impl StageTimes {
    pub fn total_s(&self) -> f64 {
        self.generate_s + self.train_s + self.index_s + self.save_s + self.serve_s
    }
}

/// One finished set-up: the running server and what built it.
pub struct Built {
    pub lake: Lake,
    /// Embeddings of every indexed column, row-major (the exact oracle).
    pub embeddings: Vec<f32>,
    pub artifact: Vec<u8>,
    pub model_path: PathBuf,
    pub times: StageTimes,
    pub server: Served,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Run the whole set-up in `dir` and serve it the way `workload` does. A
/// fixed first query's answer ends the set-up.
pub fn build(dir: &Path, workload: Workload) -> Result<Built, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut times = StageTimes::default();
    let io = StdIo;
    let own_cpu = || child::cpu_s(std::process::id()).map_err(|e| format!("own CPU time: {e}"));
    let cpu_start = own_cpu()?;

    let t = Instant::now();
    let config = CorpusConfig::new(CorpusProfile::Webtable, LAKE_TABLES, LAKE_SEED);
    let lake_path = dir.join(format!("{LAKE_NAME}.lake"));
    io.write_atomic(&lake_path, &deepjoin_lake::lakefile::encode(&config))
        .map_err(|e| e.to_string())?;
    let corpus = Corpus::generate(config);
    let repo = Arc::new(corpus.to_repository().0);
    times.generate_s = secs(t);

    let t = Instant::now();
    let train_cols = corpus.sample_queries((repo.len() / 3).clamp(200, 3_000), TRAIN_SAMPLE_SEED);
    let train_repo = Repository::from_columns(train_cols.into_iter().map(|(c, _)| c));
    let config = DeepJoinConfig {
        fine_tune: FineTuneConfig {
            epochs: TRAIN_EPOCHS,
            adam: deepjoin_nn::AdamConfig {
                lr: 5e-3,
                warmup_steps: 50,
                ..Default::default()
            },
            ..Default::default()
        },
        ..DeepJoinConfig::default()
    };
    let (mut model, _report) = DeepJoin::train(&train_repo, JoinType::Equi, config);
    times.train_s = secs(t);

    let t = Instant::now();
    let embeddings = deepjoin::batch::encode_repository_parallel(&model, &repo, BUILD_THREADS);
    model.index_embeddings_parallel(&embeddings, BUILD_THREADS);
    times.index_s = secs(t);

    let t = Instant::now();
    let model_path = dir.join(format!("{LAKE_NAME}.model"));
    let artifact = deepjoin::save_model(&model, true);
    io.write_atomic(&model_path, &artifact)
        .map_err(|e| e.to_string())?;
    times.save_s = secs(t);
    drop(model);
    times.cpu_s = own_cpu()? - cpu_start;

    let t = Instant::now();
    let spec = ServeSpec {
        workload,
        lake: lake_path,
        model: model_path.clone(),
    };
    let server = child::spawn(&spec).map_err(|e| format!("start server: {e}"))?;
    let reply = child::call(
        &server.addr,
        &Request::Query {
            name: "city".to_string(),
            cells: ["tokyo", "osaka", "kyoto"].map(String::from).to_vec(),
            k: K as u32,
            tenant: None,
            request_id: None,
        },
    )
    .map_err(|e| format!("first query: {e}"))?;
    if !matches!(reply, deepjoin_serve::Response::Query(_)) {
        return Err(format!("first query answered {reply:?}"));
    }
    times.serve_s = secs(t);
    times.cpu_s += server
        .cpu_s()
        .map_err(|e| format!("server CPU time: {e}"))?;

    Ok(Built {
        lake: Lake { corpus, repo },
        embeddings,
        artifact,
        model_path,
        times,
        server,
    })
}
