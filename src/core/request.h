// One prediction request, one report: the shared code path behind both the
// `pevpm` CLI and the `pevpmd` service.
//
// The CLI used to parse flags, run predict() and printf the summary inline;
// the daemon needs the identical behaviour over a socket. Everything that
// determines output bytes now lives here — option-string parsing, model
// detection, and the printf-compatible formatting — so the two front ends
// cannot drift: a daemon reply is byte-identical to the CLI's stdout block
// for the same model, table, procs, seed and thread count by construction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/number.h"
#include "core/parse.h"
#include "core/predict.h"
#include "mpibench/table.h"
#include "scaling/model.h"

namespace pevpm {

/// Everything a prediction needs, carried as text so the request can travel
/// over a socket. `model_text` / `table_text` hold file contents; the
/// `*_name` / `*_label` strings only affect error messages and the summary
/// header (the CLI passes the file paths it was given).
struct PredictRequest {
  std::string model_text;
  std::string model_name = "model";
  std::string table_text;
  std::string table_label;
  std::vector<int> procs;
  PredictOptions options{};
  Bindings overrides{};
  bool losses = false;
  /// Enable scaling-model extrapolation for grid cells the table does not
  /// cover. With `scaling_text` empty, a model is fitted from the table
  /// (src/scaling); both paths are deterministic, so the report stays
  /// byte-identical across thread and job counts.
  bool extrapolate = false;
  /// A pre-fitted "pevpm-scaling v1" artifact (file contents, like
  /// `table_text`). Non-empty implies `extrapolate`.
  std::string scaling_text;
};

/// Parses "distribution" | "average" | "minimum" into `sampler.mode`.
/// Returns false (sampler untouched) on anything else.
[[nodiscard]] bool parse_mode(std::string_view text, SamplerOptions& sampler);

/// Parses "scoreboard" | "fixed:<level>" into `sampler`, where <level>
/// meets the positive_int rule. Returns false (sampler untouched) on
/// anything else.
[[nodiscard]] bool parse_contention(std::string_view text,
                                    SamplerOptions& sampler);

/// Stores `value` in `out` when it is a positive int — the rule every
/// process count and replication count must meet. Returns false (`out`
/// untouched) otherwise, so callers check before narrowing.
[[nodiscard]] bool positive_int(std::int64_t value, int& out);

/// Parses one count (a whole decimal string) under the positive_int rule.
[[nodiscard]] bool parse_positive_int(std::string_view text, int& out);

/// Parses a comma-separated process-count list ("4,8,16"). Returns false on
/// empty input or a malformed/non-positive entry.
[[nodiscard]] bool parse_procs(std::string_view text, std::vector<int>& out);

/// The largest process count one `procs` entry may ask for.
inline constexpr int kMaxProcs = 65536;

/// The most processes one request may simulate: the sum of its `procs`
/// entries times its replication count.
inline constexpr std::int64_t kMaxProcessReplications = std::int64_t{1} << 20;

/// The most per-process model state (Vm::process_state_bytes) a request
/// may ask for in all: the sum of its `procs` entries times that state. A
/// Vm sizes it before it runs, and nothing else bounds it but the model's
/// size. The largest request of the tests, benches, examples and perfbench
/// asks for under 80 MB (2000 receives at 1024 processes); 2000 receives
/// at 65536 processes would ask for 4.7 GB.
inline constexpr std::uint64_t kMaxProcessStateBytes = std::uint64_t{1}
                                                       << 30;

/// Why `request` may not run (its `procs` list is empty, holds a count
/// that is not positive or is above kMaxProcs, or asks for more than
/// kMaxProcessReplications processes in all), or an empty string when it
/// may. Checked before anything is sized by the request.
[[nodiscard]] std::string admission_error(const PredictRequest& request);

/// admission_error(request), or, when that is empty, why `model` at the
/// request's process counts asks for more than kMaxProcessStateBytes of
/// per-process state. Checked before any Vm of the model is made.
[[nodiscard]] std::string admission_error(const PredictRequest& request,
                                          const Model& model);

/// Parses the request's model text, auto-detecting annotated C/C++ source
/// (a "// PEVPM" marker) versus the standalone directive language. Throws
/// ParseError on malformed input.
[[nodiscard]] Model parse_request_model(const PredictRequest& request);

/// The "model ... table ..." banner (includes the trailing blank line).
[[nodiscard]] std::string format_report_header(const Model& model,
                                               std::string_view table_label,
                                               std::size_t table_entries);

/// The column-header line above the per-procs rows.
[[nodiscard]] std::string format_column_header();

/// One result row, plus the deadlock detail and top-loss lines when they
/// apply — exactly the bytes the CLI has always printed.
[[nodiscard]] std::string format_prediction_row(int procs,
                                                const Prediction& prediction,
                                                bool losses);

struct PredictReport {
  /// Banner + column header + one row block per entry of `procs`.
  std::string summary;
  bool deadlocked = false;  ///< any procs entry deadlocked
};

/// Assembles the summary for already-computed predictions (parallel to
/// `request.procs`). The daemon uses this after scheduling replications
/// itself; run_request() below uses it after calling predict().
[[nodiscard]] PredictReport format_report(
    const PredictRequest& request, const Model& model,
    std::size_t table_entries, const std::vector<Prediction>& predictions);

/// The scaling model a request asks for: parses `scaling_text` when
/// present, otherwise fits one from `table` when `extrapolate` is set.
/// Returns nullptr when the request doesn't involve extrapolation. Throws
/// std::runtime_error on a malformed scaling artifact.
[[nodiscard]] std::shared_ptr<const scaling::ScalingModel> resolve_scaling(
    const PredictRequest& request, const mpibench::DistributionTable& table);

/// Parses model and table from the request text, resolves the scaling
/// model per `resolve_scaling`, and runs every `procs` entry (the CLI path;
/// the daemon schedules replications itself and calls format_report).
/// Throws ParseError / std::runtime_error on malformed model or table.
[[nodiscard]] PredictReport run_request(const PredictRequest& request);

/// run_request with the request's model already parsed
/// (parse_request_model).
[[nodiscard]] PredictReport run_request(const PredictRequest& request,
                                        const Model& model);

}  // namespace pevpm
