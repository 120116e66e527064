// The pevpmd prediction service core (transport-agnostic).
//
// A Service owns the resident state a fleet of prediction queries wants to
// share: the parsed-artifact cache, a fixed set of slice workers, and the
// request scheduler they run. The socket front end (server.h) is a thin
// shell over it, and tests drive it directly.
//
// Scheduling: each admitted request ("job") decomposes into slices, one
// per (procs entry x lockstep batch): contiguous replications of one entry,
// split by the batching rule of core/predict.h (pevpm::batch_lanes with the
// service's worker count), run by pevpm::run_batch. A request alone on a
// W-worker service so runs exactly the batches of `pevpm --threads W`. The
// service's own worker threads pick slices round-robin *across jobs*, so a
// 1000-replication request and a 4-replication request admitted together
// finish in interleaved fashion rather than head-of-line order — one huge
// query cannot starve small ones. Slices store each lane's result into its
// per-(entry, replication) slot and the reduction runs in replication
// order, so a service reply is byte-identical to `pevpm` run locally with
// the same model, table, procs and seed at any thread count. A failed job
// answers with the error of its lowest failing slice, as a serial run
// would: slices start in order, so every lower slice has run to its end
// before the job answers.
//
// Admission control: at most `queue_capacity` jobs may be in the system
// (queued + running). Beyond that submissions are rejected immediately
// with a 503-style response carrying a Retry-After hint derived from
// observed service latency — the queue is bounded by refusal, not by
// blocking, so overload cannot stall clients or grow memory without bound.
// Each job may carry a deadline; expired jobs abandon their unstarted
// slices and answer 504.
//
// drain() stops admission (503 "draining") and returns once in-flight jobs
// have answered — the SIGTERM path.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/request.h"
#include "core/sampler.h"
#include "core/thread_annotations.h"
#include "serve/cache.h"
#include "stats/summary.h"
#include "trace/trace.h"

namespace serve {

struct ServiceOptions {
  /// Slice worker threads (pevpm::resolve_threads semantics: <= 0 means
  /// one per hardware thread).
  int threads = 0;
  /// Bound on jobs in the system (queued + running); submissions beyond it
  /// are rejected with status 503.
  std::size_t queue_capacity = 64;
  /// Resident parsed artifacts (models + tables + clusters).
  std::size_t cache_capacity = 32;
  /// Deadline applied to requests that do not carry their own (zero =
  /// none). The JSON boundary converts via Duration::from_millis.
  units::Duration default_deadline{};
  /// Optional request-lifecycle tracer (Category::kServe events, wall-clock
  /// nanoseconds since service construction).
  trace::Tracer* tracer = nullptr;
};

struct ServiceStats {
  std::size_t queue_depth = 0;  ///< admitted jobs with no slice started yet
  std::size_t in_flight = 0;    ///< jobs with at least one slice started
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;
  std::uint64_t deadline_expired = 0;
  std::uint64_t failed = 0;     ///< evaluation errors (status 400 or 500)
  std::uint64_t bad_requests = 0;
  /// Requests that asked for scaling-model extrapolation (accepted only).
  std::uint64_t extrapolations = 0;
  CacheStats cache;
  /// Fitted scaling-model subset of `cache` (hit rate of the expensive
  /// per-quantile fits, keyed by table or artifact text).
  CacheStats scaling_cache;
  stats::TailSummary predict_latency;  ///< seconds, completed predicts
  stats::TailSummary queue_wait;       ///< seconds, admission -> first slice
  bool draining = false;
};

class Service {
 public:
  struct Response {
    /// 200 ok | 400 bad request (including a model that fails to
    /// evaluate: pevpm::ModelError) | 500 other evaluation error | 503
    /// rejected (queue full or draining) | 504 deadline exceeded.
    int status = 200;
    std::string error;
    units::Duration retry_after{};  ///< populated on 503
    std::string summary;          ///< populated on 200
    bool deadlocked = false;
  };

  explicit Service(const ServiceOptions& options);
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Runs one prediction request to completion (blocking; call from the
  /// per-connection thread). A non-positive `deadline` falls back to the
  /// service default. The request's own `options.threads` is ignored:
  /// scheduling belongs to the service, and determinism makes the thread
  /// count unobservable in the reply.
  [[nodiscard]] Response predict(const pevpm::PredictRequest& request,
                                 units::Duration deadline = units::Duration{})
      EXCLUDES(mu_);

  /// Parses a cluster description (over the Perseus preset, exactly like
  /// `mpibench --cluster`) and returns net::describe() of it. Cached like
  /// every other artifact.
  [[nodiscard]] Response describe_cluster(const std::string& cluster_text)
      EXCLUDES(mu_);

  [[nodiscard]] ServiceStats stats() const EXCLUDES(mu_);

  [[nodiscard]] unsigned threads() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  /// Stops admitting (new submissions answer 503 "draining") and blocks
  /// until every in-flight job has answered. Idempotent.
  void drain() EXCLUDES(mu_);

  [[nodiscard]] bool draining() const EXCLUDES(mu_);

 private:
  using Clock = std::chrono::steady_clock;

  struct Job {
    const pevpm::PredictRequest* request = nullptr;
    std::shared_ptr<const pevpm::Model> model;
    std::shared_ptr<const mpibench::DistributionTable> table;
    /// Keeps the model behind options.sampler.scaling alive while the
    /// cache may evict it; null when the request doesn't extrapolate.
    std::shared_ptr<const scaling::ScalingModel> scaling;
    /// request->options with the tracer swapped for the service's own;
    /// seeds and slices are derived from this copy.
    pevpm::PredictOptions options{};
    std::vector<std::uint64_t> seeds;
    /// Sampler cells shared by all of the job's slices (built from table
    /// and options.sampler; internally synchronised).
    std::optional<pevpm::SamplerCells> cells;
    std::uint64_t id = 0;
    int reps = 0;
    /// Replications per slice (pevpm::batch_lanes) and slices per procs
    /// entry; slice s runs batch s % batches of entry s / batches.
    int lanes = 1;
    std::size_t batches = 0;
    /// results[entry][replication]; slots are written by exactly one slice.
    std::vector<std::vector<pevpm::SimulationResult>> results;
    std::size_t total_slices = 0;
    std::size_t next_slice = 0;  ///< first unstarted slice
    std::size_t started = 0;
    std::size_t finished = 0;
    Clock::time_point admitted_at{};
    Clock::time_point deadline{};
    bool has_deadline = false;
    bool first_slice_seen = false;
    bool expired = false;
    bool failed = false;
    bool model_error = false;  ///< the failure was a pevpm::ModelError
    std::string error;
    std::size_t failed_slice = 0;  ///< the lowest failed slice, when failed
    bool done = false;
    /// Waits on the service's mu_. (Job fields are guarded by mu_ too, but
    /// a nested struct cannot name the owner's mutex in a GUARDED_BY; the
    /// REQUIRES annotations on the helpers below keep them checked.)
    pevpm::CondVar done_cv;
  };

  /// One slice worker: under mu_, picks a slice, runs it unlocked, stores
  /// its result; waits on work_cv_ while nothing is startable and returns
  /// once stopping_ is set.
  void worker_loop() EXCLUDES(mu_);
  /// Picks the next startable slice round-robin across jobs. Expires
  /// overdue jobs as a side effect. Returns false when nothing is
  /// startable.
  bool pick_slice(Job*& job, std::size_t& slice) REQUIRES(mu_);
  /// Marks `job` finished, records latency, notifies.
  void finalize(Job& job) REQUIRES(mu_);
  void record_event(std::int64_t subject, const std::string& detail);
  /// Wall-clock instant on the service's own clock (ns since construction).
  [[nodiscard]] des::SimTime now() const;
  [[nodiscard]] units::Duration retry_after_locked() const REQUIRES(mu_);

  ServiceOptions options_;
  ArtifactCache cache_;

  /// Root of the serve-side lock order. Code paths that hold mu_ may
  /// acquire, in nested scope: the artifact cache's lock (stats()) and the
  /// tracer's record lock (record_event under admission/finalize). Both
  /// are leaves — neither acquires anything further — so the graph is a
  /// star and cannot cycle. Declared here so clang's
  /// -Wthread-safety-beta lock-order analysis checks every acquisition
  /// against it. Server::connections_mu_ is outside the graph: it is
  /// never held across a Service call (shutdown() drains first, then
  /// sweeps connections).
  mutable pevpm::Mutex mu_ ACQUIRED_BEFORE(cache_.mutex(),
                                           options_.tracer->mutex());
  std::vector<Job*> jobs_ GUARDED_BY(mu_);  ///< active jobs, admission order
  std::size_t cursor_ GUARDED_BY(mu_) = 0;  ///< round-robin position in jobs_
  pevpm::CondVar idle_cv_;                  ///< signalled when jobs_ empties
  pevpm::CondVar work_cv_;  ///< signalled on admission and on stopping_
  bool draining_ GUARDED_BY(mu_) = false;
  bool stopping_ GUARDED_BY(mu_) = false;  ///< set by the destructor
  std::uint64_t next_job_id_ GUARDED_BY(mu_) = 1;

  // Counters + latency reservoirs (bounded; tail_summary on demand).
  std::uint64_t accepted_ GUARDED_BY(mu_) = 0;
  std::uint64_t rejected_ GUARDED_BY(mu_) = 0;
  std::uint64_t completed_ GUARDED_BY(mu_) = 0;
  std::uint64_t deadline_expired_ GUARDED_BY(mu_) = 0;
  std::uint64_t failed_ GUARDED_BY(mu_) = 0;
  std::uint64_t bad_requests_ GUARDED_BY(mu_) = 0;
  std::uint64_t extrapolations_ GUARDED_BY(mu_) = 0;
  std::vector<double> latency_samples_ GUARDED_BY(mu_);
  std::vector<double> wait_samples_ GUARDED_BY(mu_);
  std::size_t latency_next_ GUARDED_BY(mu_) = 0;
  std::size_t wait_next_ GUARDED_BY(mu_) = 0;

  Clock::time_point epoch_ = Clock::now();

  /// Started by the constructor, joined by the destructor; the vector
  /// itself is not modified in between.
  std::vector<std::thread> workers_;
};

}  // namespace serve
