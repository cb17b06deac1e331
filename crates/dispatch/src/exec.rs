//! Job execution, shared by the in-process worker pool and the shard
//! worker processes.
//!
//! This is the single definition of "run one job": throttle pacing,
//! input resolution, the seeded split → train → reconstruct pipeline,
//! and model reuse with RNG-state restoration. Both serving modes call
//! it, which is what makes `--shards N` results bit-identical to
//! `--workers N` — there is only one execution path to agree with.
//! [`execute_encoded`] wraps it for jobs that arrive as a `Dispatch`
//! frame's bytes: the shard worker and the dispatcher's breaker-open
//! reroute both run it.
//!
//! Dataset inputs are resolved through a small process-wide memo:
//! generation is deterministic (each registry dataset has a fixed
//! generation seed), so a batch of jobs over the same dataset generates
//! it once per process instead of once per job.

use marioh_core::{
    CancelToken, MariohError, Pipeline, ProgressObserver, Reconstructor as _, SavedModel,
};
use marioh_datasets::split::split_source_target;
use marioh_datasets::PaperDataset;
use marioh_hypergraph::metrics::jaccard;
use marioh_hypergraph::projection::project;
use marioh_hypergraph::Hypergraph;
use marioh_store::{encode_result, JobInput, JobResult, JobSpec, Json};
use rand::{rngs::StdRng, SeedableRng};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Granularity of cancellable sleeps.
const SLEEP_SLICE: Duration = Duration::from_millis(10);

/// Generated datasets kept per process; a batch rarely spans more.
const DATASET_MEMO_CAP: usize = 8;

/// Sleeps for `ms` milliseconds in small slices, returning early (and
/// reporting whether it completed) once `cancel` fires.
pub fn cancellable_sleep(ms: u64, cancel: &CancelToken) -> bool {
    let deadline = std::time::Instant::now() + Duration::from_millis(ms);
    while std::time::Instant::now() < deadline {
        if cancel.is_cancelled() {
            return false;
        }
        std::thread::sleep(SLEEP_SLICE.min(deadline - std::time::Instant::now()));
    }
    !cancel.is_cancelled()
}

/// Memo key: registry dataset name + the scale's exact bits.
type DatasetKey = (&'static str, u64);

/// Process-wide memo of generated registry datasets. Generation is
/// deterministic, so sharing is invisible to results; it only saves the
/// repeated work when a batch fans many jobs over one dataset.
static DATASET_MEMO: Mutex<Vec<(DatasetKey, Arc<Hypergraph>)>> = Mutex::new(Vec::new());

fn dataset_hypergraph(dataset: PaperDataset, scale: f64) -> Arc<Hypergraph> {
    let key = (dataset.name(), scale.to_bits());
    if let Some(hit) = {
        let memo = DATASET_MEMO.lock().expect("dataset memo lock poisoned");
        memo.iter()
            .find(|(k, _)| *k == key)
            .map(|(_, h)| Arc::clone(h))
    } {
        return hit;
    }
    // Generate outside the lock so concurrent jobs on *different*
    // datasets do not serialize behind each other.
    let generated = Arc::new(dataset.generate_scaled(scale).hypergraph);
    let mut memo = DATASET_MEMO.lock().expect("dataset memo lock poisoned");
    if let Some((_, existing)) = memo.iter().find(|(k, _)| *k == key) {
        return Arc::clone(existing); // lost a race; both copies are identical
    }
    memo.push((key, Arc::clone(&generated)));
    if memo.len() > DATASET_MEMO_CAP {
        memo.remove(0);
    }
    generated
}

/// Runs one job to completion (or cancellation). Returns the result
/// and, when the job trained its own classifier, the model (with the
/// post-training RNG state) for the artifact store.
///
/// Every job runs split → train → reconstruct off one `StdRng` seeded
/// with the job's seed, so the result is bit-identical to a direct
/// [`Pipeline`] run with the same inputs — and identical across serving
/// modes. A spec reusing a model skips training entirely: restoring the
/// donor's post-training RNG state makes the reconstruction
/// bit-identical to the donor's when input and seed match.
///
/// # Errors
///
/// [`MariohError::Cancelled`] when `cancel` fires, or whatever the
/// pipeline itself fails with.
pub fn execute_job(
    spec: JobSpec,
    reuse: Option<SavedModel>,
    observer: Arc<dyn ProgressObserver>,
    cancel: CancelToken,
) -> Result<(JobResult, Option<SavedModel>), MariohError> {
    if spec.throttle_ms > 0 && !cancellable_sleep(spec.throttle_ms, &cancel) {
        return Err(MariohError::Cancelled);
    }
    let builder = spec
        .apply(Pipeline::builder())
        .observer(observer)
        .cancel_token(cancel.clone());
    let hypergraph: Arc<Hypergraph> = match spec.input {
        JobInput::Dataset { dataset, scale } => {
            dataset_hypergraph(dataset, scale.unwrap_or_else(|| dataset.default_scale()))
        }
        JobInput::Edges(h) => Arc::new(h),
    };
    if cancel.is_cancelled() {
        return Err(MariohError::Cancelled);
    }
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let (source, target) = split_source_target(&hypergraph, &mut rng);
    let pipeline = builder.build()?; // validated at submission; cannot fail here
    let (model, trained) = match reuse {
        Some(saved) => {
            // Skip training entirely. Restoring the donor's post-training
            // RNG position makes the reconstruction bit-identical to the
            // donor's when input and seed match (the observer's
            // on_training_done never fires on this path).
            if let Some(state) = saved.rng_state {
                rng = StdRng::from_state(state);
            }
            (pipeline.with_model(saved.model), None)
        }
        None => {
            let model = pipeline.train(&source, &mut rng)?;
            let saved = SavedModel {
                model: model.model().clone(),
                rng_state: Some(rng.state()),
            };
            (model, Some(saved))
        }
    };
    if cancel.is_cancelled() {
        return Err(MariohError::Cancelled);
    }
    let reconstruction = model.reconstruct(&project(&target), &mut rng)?;
    let similarity = jaccard(&target, &reconstruction);
    Ok((
        JobResult {
            reconstruction,
            jaccard: similarity,
        },
        trained,
    ))
}

/// What a job run by [`execute_encoded`] reports, in the encodings the
/// wire and the stores carry.
#[derive(Debug)]
pub(crate) enum EncodedOutcome {
    /// The job finished.
    Done {
        /// The result artifact (`marioh-result v1` bytes).
        payload: Vec<u8>,
        /// The trained model (`SavedModel` bytes), when the job trained
        /// its own.
        model: Option<Vec<u8>>,
    },
    /// The job failed or was cancelled.
    Failed {
        /// Why, for the job record.
        message: String,
        /// Whether the failure is a requested cancellation.
        cancelled: bool,
    },
}

/// Runs one job from its encoded form: parses the faithful spec JSON,
/// decodes the optional reused model, calls [`execute_job`] with the
/// observer `observer` builds from the parsed spec, and encodes the
/// outcome. A non-cancellation error is also reported to the observer's
/// [`ProgressObserver::on_error`] before it is returned.
pub(crate) fn execute_encoded(
    spec_json: &str,
    model_bytes: Option<&[u8]>,
    observer: impl FnOnce(&JobSpec) -> Arc<dyn ProgressObserver>,
    cancel: CancelToken,
) -> EncodedOutcome {
    let failed = |message: String| EncodedOutcome::Failed {
        message,
        cancelled: false,
    };
    // Parse and decode failures can only come from a dispatcher bug:
    // specs were validated at submission and re-encoded faithfully.
    let spec = match Json::parse(spec_json)
        .map_err(|e| e.to_string())
        .and_then(|json| JobSpec::from_json(&json).map_err(|e| e.to_string()))
    {
        Ok(spec) => spec,
        Err(message) => return failed(format!("could not parse spec: {message}")),
    };
    let reuse = match model_bytes.map(SavedModel::read_from).transpose() {
        Ok(reuse) => reuse,
        Err(e) => return failed(format!("could not decode model: {e}")),
    };
    let observer = observer(&spec);
    match execute_job(spec, reuse, Arc::clone(&observer), cancel) {
        Ok((result, trained)) => EncodedOutcome::Done {
            payload: encode_result(&result),
            model: trained.map(|saved| {
                let mut bytes = Vec::new();
                saved
                    .write_to(&mut bytes)
                    .expect("writing a model to a Vec cannot fail");
                bytes
            }),
        },
        Err(e) => {
            let cancelled = matches!(e, MariohError::Cancelled);
            if !cancelled {
                observer.on_error(&e.to_string());
            }
            EncodedOutcome::Failed {
                message: e.to_string(),
                cancelled,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marioh_core::NoopObserver;

    fn spec(body: &str) -> JobSpec {
        JobSpec::from_json(&Json::parse(body).unwrap()).unwrap()
    }

    #[test]
    fn memoized_dataset_generation_does_not_change_results() {
        let run = |_: usize| {
            execute_job(
                spec(r#"{"dataset": "Hosts", "seed": 11}"#),
                None,
                Arc::new(NoopObserver),
                CancelToken::new(),
            )
            .expect("job runs")
        };
        let (first, _) = run(0);
        let (second, _) = run(1); // second run hits the memo
        assert_eq!(first.jaccard.to_bits(), second.jaccard.to_bits());
        assert_eq!(
            first.reconstruction.sorted_edges(),
            second.reconstruction.sorted_edges()
        );
        let memo = DATASET_MEMO.lock().unwrap();
        assert!(memo.iter().any(|((name, _), _)| *name == "Hosts"));
    }

    #[test]
    fn cancel_during_throttle_returns_cancelled() {
        let cancel = CancelToken::new();
        cancel.cancel();
        let err = execute_job(
            spec(r#"{"dataset": "Hosts", "throttle_ms": 60000}"#),
            None,
            Arc::new(NoopObserver),
            cancel,
        )
        .unwrap_err();
        assert!(matches!(err, MariohError::Cancelled));
    }
}
