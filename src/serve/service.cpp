#include "serve/service.h"

#include <algorithm>
#include <span>
#include <sstream>
#include <utility>

#include "core/parallel.h"
#include "net/cluster.h"

namespace serve {

namespace {

constexpr std::size_t kLatencyReservoir = 4096;

double ms_between(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

void reservoir_push(std::vector<double>& samples, std::size_t& next,
                    double value) {
  if (samples.size() < kLatencyReservoir) {
    samples.push_back(value);
  } else {
    samples[next] = value;
    next = (next + 1) % kLatencyReservoir;
  }
}

}  // namespace

Service::Service(const ServiceOptions& options)
    : options_{options}, cache_{options.cache_capacity} {
  const unsigned threads = pevpm::resolve_threads(options.threads);
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

Service::~Service() {
  drain();
  {
    pevpm::MutexLock lock{mu_};
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

des::SimTime Service::now() const {
  return des::SimTime{
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch_)
          .count()};
}

void Service::record_event(std::int64_t subject, const std::string& detail) {
  if (options_.tracer != nullptr && options_.tracer->enabled()) {
    options_.tracer->record(now(), trace::Category::kServe, subject,
                            detail);
  }
}

units::Duration Service::retry_after_locked() const {
  // Little's-law flavoured hint: the backlog ahead of a retry, paced by the
  // workers, at the recently observed per-request latency.
  double mean_latency_ms = 50.0;  // cold-start guess
  if (!latency_samples_.empty()) {
    double sum = 0.0;
    for (const double s : latency_samples_) sum += s;
    mean_latency_ms =
        sum / static_cast<double>(latency_samples_.size()) * 1e3;
  }
  const double backlog = static_cast<double>(jobs_.size() + 1);
  const double hint =
      mean_latency_ms * backlog / static_cast<double>(workers_.size());
  return units::Duration::from_millis(std::max(1.0, hint));
}

void Service::finalize(Job& job) {
  job.done = true;
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    if (jobs_[i] == &job) {
      jobs_.erase(jobs_.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
  if (cursor_ >= jobs_.size()) cursor_ = 0;
  const double latency_s =
      ms_between(job.admitted_at, Clock::now()) / 1e3;
  const char* outcome = "completed";
  if (job.expired) {
    ++deadline_expired_;
    outcome = "deadline_expired";
  } else if (job.failed) {
    ++failed_;
    outcome = "failed";
  } else {
    ++completed_;
    reservoir_push(latency_samples_, latency_next_, latency_s);
  }
  record_event(static_cast<std::int64_t>(job.id),
               std::string{"request "} + outcome +
                   " latency_ms=" + std::to_string(latency_s * 1e3) +
                   " slices=" + std::to_string(job.finished) + "/" +
                   std::to_string(job.total_slices));
  job.done_cv.notify_all();
  if (jobs_.empty()) idle_cv_.notify_all();
}

bool Service::pick_slice(Job*& out_job, std::size_t& out_slice) {
  const auto now = Clock::now();
  for (bool rescan = true; rescan;) {
    rescan = false;
    std::size_t scanned = 0;
    while (scanned < jobs_.size()) {
      if (cursor_ >= jobs_.size()) cursor_ = 0;
      Job* job = jobs_[cursor_];
      if (job->has_deadline && !job->expired && now >= job->deadline) {
        job->expired = true;
        record_event(static_cast<std::int64_t>(job->id),
                     "request deadline expired, abandoning " +
                         std::to_string(job->total_slices - job->started) +
                         " unstarted slices");
        if (job->started == job->finished) {
          finalize(*job);  // erases the job; restart the scan
          rescan = true;
          break;
        }
      }
      if (!job->expired && job->next_slice < job->total_slices) {
        out_job = job;
        out_slice = job->next_slice++;
        ++job->started;
        if (!job->first_slice_seen) {
          job->first_slice_seen = true;
          reservoir_push(wait_samples_, wait_next_,
                         ms_between(job->admitted_at, now) / 1e3);
        }
        ++cursor_;  // fairness: next pick starts at the next job
        return true;
      }
      ++cursor_;
      ++scanned;
    }
  }
  return false;
}

void Service::worker_loop() {
  pevpm::MutexLock lock{mu_};
  for (;;) {
    Job* job = nullptr;
    std::size_t slice = 0;
    if (!pick_slice(job, slice)) {
      if (stopping_) return;
      work_cv_.wait(lock);
      continue;
    }
    const std::size_t entry = slice / job->batches;
    const int first = static_cast<int>(slice % job->batches) * job->lanes;
    const int count = std::min(job->lanes, job->reps - first);
    const int procs = job->request->procs[entry];
    lock.unlock();
    std::vector<pevpm::SimulationResult> results;
    bool ok = true;
    bool model_error = false;
    std::string error;
    try {
      results = pevpm::run_batch(
          *job->model, procs, job->request->overrides, *job->cells,
          job->options, first,
          std::span<const std::uint64_t>{job->seeds}.subspan(
              static_cast<std::size_t>(first),
              static_cast<std::size_t>(count)));
    } catch (const pevpm::ModelError& e) {
      ok = false;
      model_error = true;
      error = e.what();
    } catch (const std::exception& e) {
      ok = false;
      error = e.what();
    }
    lock.lock();
    ++job->finished;
    if (ok) {
      std::move(results.begin(), results.end(),
                job->results[entry].begin() + first);
    } else if (!job->failed || slice < job->failed_slice) {
      // Every lower slice has started and finishes before the job
      // answers, so the lowest failed slice wins whatever the timing.
      job->failed = true;
      job->failed_slice = slice;
      job->model_error = model_error;
      job->error = std::move(error);
    }
    if (job->failed || job->expired) {
      job->next_slice = job->total_slices;  // abandon unstarted slices
      if (job->finished == job->started) finalize(*job);
    } else if (job->finished == job->total_slices) {
      finalize(*job);
    }
  }
}

Service::Response Service::predict(const pevpm::PredictRequest& request,
                                   units::Duration deadline) {
  Response response;

  // Resolve artifacts before admission: a malformed request is the
  // client's fault and must not consume a queue slot (or evict anything a
  // well-formed request cached).
  std::shared_ptr<const pevpm::Model> model;
  std::shared_ptr<const mpibench::DistributionTable> table;
  std::shared_ptr<const scaling::ScalingModel> scaling;
  try {
    model = cache_.get<pevpm::Model>(request.model_text, [&] {
      return std::make_shared<const pevpm::Model>(
          parse_request_model(request));
    });
    table = cache_.get<mpibench::DistributionTable>(request.table_text, [&] {
      std::istringstream in{request.table_text};
      return std::make_shared<const mpibench::DistributionTable>(
          mpibench::DistributionTable::load(in));
    });
    // resolve_scaling() picks the model; the cache keys it by a shipped
    // artifact's own text, or by the table text for an on-demand fit
    // (fitting is deterministic, so the table is the fit's full
    // identity). Distinct cache kinds keep the fit entry from colliding
    // with the parsed table under the same key. Requests without a
    // scaling model leave the scaling counters alone.
    if (request.extrapolate || !request.scaling_text.empty()) {
      scaling = cache_.get<scaling::ScalingModel>(
          request.scaling_text.empty() ? request.table_text
                                       : request.scaling_text,
          [&] { return pevpm::resolve_scaling(request, *table); });
    }
  } catch (const std::exception& e) {
    pevpm::MutexLock lock{mu_};
    ++bad_requests_;
    response.status = 400;
    response.error = e.what();
    return response;
  }
  if (std::string why = pevpm::admission_error(request); !why.empty()) {
    pevpm::MutexLock lock{mu_};
    ++bad_requests_;
    response.status = 400;
    response.error = std::move(why);
    return response;
  }

  Job job;
  job.request = &request;
  job.model = std::move(model);
  job.table = std::move(table);
  job.scaling = std::move(scaling);
  job.options = request.options;
  job.options.tracer = options_.tracer;
  job.options.sampler.scaling = job.scaling.get();
  job.reps = std::max(pevpm::replication_count(job.options), 0);
  job.seeds = pevpm::replication_seeds(job.options);
  job.cells.emplace(*job.table, job.options.sampler);
  job.results.assign(
      request.procs.size(),
      std::vector<pevpm::SimulationResult>(static_cast<std::size_t>(job.reps)));
  job.lanes = pevpm::batch_lanes(job.reps, threads());
  job.batches =
      static_cast<std::size_t>((job.reps + job.lanes - 1) / job.lanes);
  job.total_slices = request.procs.size() * job.batches;

  pevpm::MutexLock lock{mu_};
  job.id = next_job_id_++;
  if (draining_) {
    ++rejected_;
    record_event(static_cast<std::int64_t>(job.id),
                 "request rejected: draining");
    response.status = 503;
    response.error = "service is draining";
    response.retry_after = retry_after_locked();
    return response;
  }
  if (jobs_.size() >= options_.queue_capacity) {
    ++rejected_;
    response.retry_after = retry_after_locked();
    record_event(static_cast<std::int64_t>(job.id),
                 "request rejected: queue full (" +
                     std::to_string(jobs_.size()) + "/" +
                     std::to_string(options_.queue_capacity) +
                     "), retry_after_ms=" +
                     std::to_string(response.retry_after.to_millis()));
    response.status = 503;
    response.error = "request queue is full";
    return response;
  }
  ++accepted_;
  if (job.scaling != nullptr) ++extrapolations_;
  job.admitted_at = Clock::now();
  const units::Duration effective_deadline =
      deadline > units::Duration{} ? deadline : options_.default_deadline;
  if (effective_deadline > units::Duration{}) {
    job.has_deadline = true;
    job.deadline = job.admitted_at + std::chrono::duration_cast<Clock::duration>(
                                         std::chrono::nanoseconds{
                                             effective_deadline.ns()});
  }
  jobs_.push_back(&job);
  record_event(static_cast<std::int64_t>(job.id),
               "request admitted procs=" +
                   std::to_string(request.procs.size()) + " reps=" +
                   std::to_string(job.reps) + " queue_depth=" +
                   std::to_string(jobs_.size()));
  if (job.total_slices == 0) {
    finalize(job);
  } else {
    work_cv_.notify_all();
  }
  while (!job.done) job.done_cv.wait(lock);

  if (job.expired) {
    response.status = 504;
    response.error = "deadline exceeded";
    return response;
  }
  if (job.failed) {
    // A model that fails to evaluate is the client's input at fault, like
    // one that fails to parse.
    response.status = job.model_error ? 400 : 500;
    response.error = job.error;
    return response;
  }
  lock.unlock();

  // Reduce in replication order per procs entry — the byte-identity
  // contract with the CLI's predict() path.
  std::vector<pevpm::Prediction> predictions;
  predictions.reserve(request.procs.size());
  for (auto& replication_results : job.results) {
    predictions.push_back(
        pevpm::reduce_replications(std::move(replication_results)));
  }
  const pevpm::PredictReport report =
      format_report(request, *job.model, job.table->size(), predictions);
  response.summary = report.summary;
  response.deadlocked = report.deadlocked;
  return response;
}

Service::Response Service::describe_cluster(const std::string& cluster_text) {
  Response response;
  try {
    const auto cluster = cache_.get<net::ClusterParams>(cluster_text, [&] {
      std::istringstream in{cluster_text};
      return std::make_shared<const net::ClusterParams>(
          net::parse_cluster(in, net::perseus(16)));
    });
    response.summary = net::describe(*cluster);
  } catch (const std::exception& e) {
    pevpm::MutexLock lock{mu_};
    ++bad_requests_;
    response.status = 400;
    response.error = e.what();
  }
  return response;
}

ServiceStats Service::stats() const {
  pevpm::MutexLock lock{mu_};
  ServiceStats out;
  for (const Job* job : jobs_) {
    if (job->first_slice_seen) {
      ++out.in_flight;
    } else {
      ++out.queue_depth;
    }
  }
  out.accepted = accepted_;
  out.rejected = rejected_;
  out.completed = completed_;
  out.deadline_expired = deadline_expired_;
  out.failed = failed_;
  out.bad_requests = bad_requests_;
  out.extrapolations = extrapolations_;
  out.cache = cache_.stats();
  out.scaling_cache = cache_.scaling_stats();
  out.predict_latency = stats::tail_summary(latency_samples_);
  out.queue_wait = stats::tail_summary(wait_samples_);
  out.draining = draining_;
  return out;
}

void Service::drain() {
  pevpm::MutexLock lock{mu_};
  draining_ = true;
  while (!jobs_.empty()) idle_cv_.wait(lock);
}

bool Service::draining() const {
  pevpm::MutexLock lock{mu_};
  return draining_;
}

}  // namespace serve
