#include "core/request.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <sstream>

namespace pevpm {

bool parse_mode(std::string_view text, SamplerOptions& sampler) {
  if (text == "distribution") {
    sampler.mode = PredictionMode::kDistribution;
  } else if (text == "average") {
    sampler.mode = PredictionMode::kAverage;
  } else if (text == "minimum") {
    sampler.mode = PredictionMode::kMinimum;
  } else {
    return false;
  }
  return true;
}

bool parse_contention(std::string_view text, SamplerOptions& sampler) {
  if (text == "scoreboard") {
    sampler.contention = ContentionSource::kScoreboard;
    return true;
  }
  if (text.rfind("fixed:", 0) == 0) {
    int value = 0;
    if (!parse_positive_int(text.substr(6), value)) return false;
    sampler.contention = ContentionSource::kFixed;
    sampler.fixed_contention = value;
    return true;
  }
  return false;
}

bool positive_int(std::int64_t value, int& out) {
  if (value <= 0 || value > std::numeric_limits<int>::max()) return false;
  out = static_cast<int>(value);
  return true;
}

bool parse_positive_int(std::string_view text, int& out) {
  std::int64_t value = 0;
  return parse_number(text, value) && positive_int(value, out);
}

bool parse_procs(std::string_view text, std::vector<int>& out) {
  std::vector<int> parsed;
  // Hand-rolled split on ',' (no stringstream copy per request). Matches
  // getline's delimiter semantics exactly: a trailing comma yields no empty
  // final token ("4," is {4}); an empty token anywhere else is an error.
  std::size_t begin = 0;
  while (begin < text.size()) {
    const std::size_t comma = text.find(',', begin);
    const std::size_t end = comma == std::string_view::npos ? text.size()
                                                            : comma;
    int value = 0;
    if (!parse_positive_int(text.substr(begin, end - begin), value)) {
      return false;
    }
    parsed.push_back(value);
    begin = end + (comma == std::string_view::npos ? 0 : 1);
    if (comma == std::string_view::npos) break;
  }
  if (parsed.empty()) return false;
  out = std::move(parsed);
  return true;
}

std::string admission_error(const PredictRequest& request) {
  if (request.procs.empty() ||
      std::any_of(request.procs.begin(), request.procs.end(),
                  [](int p) { return p <= 0; })) {
    return "procs must be a non-empty list of positive integers";
  }
  const std::int64_t reps = replication_count(request.options);
  std::int64_t procs = 0;
  for (const int p : request.procs) {
    if (p > kMaxProcs) {
      return "procs entry " + std::to_string(p) + " is over the limit of " +
             std::to_string(kMaxProcs);
    }
    // procs stays below kMaxProcessReplications + kMaxProcs here, so the
    // product cannot overflow.
    procs += p;
    if (procs * reps > kMaxProcessReplications) {
      return "procs x replications is over the limit of " +
             std::to_string(kMaxProcessReplications) + " processes";
    }
  }
  return {};
}

Model parse_request_model(const PredictRequest& request) {
  const bool annotated =
      request.model_text.find("// PEVPM") != std::string::npos;
  return annotated
             ? parse_annotated_source(request.model_text, request.model_name)
             : parse_model(request.model_text, request.model_name);
}

std::string format_report_header(const Model& model,
                                 std::string_view table_label,
                                 std::size_t table_entries) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "model %s (%d directives), table %.*s (%zu entries)\n\n",
                model.name.c_str(), model.node_count,
                static_cast<int>(table_label.size()), table_label.data(),
                table_entries);
  return buf;
}

std::string format_column_header() {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%8s %14s %14s %10s %8s\n", "procs",
                "predicted_s", "sem_s", "messages", "status");
  return buf;
}

std::string format_prediction_row(int procs, const Prediction& prediction,
                                  bool losses) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%8d %14.6f %14.6f %10llu %8s\n", procs,
                prediction.seconds(), prediction.makespan.sem(),
                static_cast<unsigned long long>(prediction.detail.messages),
                prediction.deadlocked ? "DEADLOCK" : "ok");
  std::string out{buf};
  if (prediction.deadlocked) {
    out += "  blocked processes:";
    for (std::size_t i = 0;
         i < prediction.detail.deadlocked_processes.size() && i < 8; ++i) {
      std::snprintf(buf, sizeof(buf), " %d(dir %d)",
                    prediction.detail.deadlocked_processes[i],
                    prediction.detail.deadlocked_directives[i]);
      out += buf;
    }
    out += '\n';
  }
  if (losses) {
    for (const auto& [directive, loss] : prediction.detail.top_losses(5)) {
      std::snprintf(buf, sizeof(buf),
                    "  loss: directive %d blocked %.4f s total\n", directive,
                    loss);
      out += buf;
    }
  }
  return out;
}

PredictReport format_report(const PredictRequest& request, const Model& model,
                            std::size_t table_entries,
                            const std::vector<Prediction>& predictions) {
  PredictReport report;
  report.summary =
      format_report_header(model, request.table_label, table_entries);
  report.summary += format_column_header();
  for (std::size_t i = 0; i < predictions.size(); ++i) {
    report.summary += format_prediction_row(request.procs[i], predictions[i],
                                            request.losses);
    report.deadlocked = report.deadlocked || predictions[i].deadlocked;
  }
  return report;
}

std::shared_ptr<const scaling::ScalingModel> resolve_scaling(
    const PredictRequest& request, const mpibench::DistributionTable& table) {
  if (!request.scaling_text.empty()) {
    std::istringstream in{request.scaling_text};
    return std::make_shared<const scaling::ScalingModel>(
        scaling::ScalingModel::load(in));
  }
  if (request.extrapolate) {
    return std::make_shared<const scaling::ScalingModel>(
        scaling::fit_scaling_model(table));
  }
  return nullptr;
}

PredictReport run_request(const PredictRequest& request) {
  const Model model = parse_request_model(request);
  std::istringstream table_in{request.table_text};
  const auto table = mpibench::DistributionTable::load(table_in);
  PredictOptions options = request.options;
  const std::shared_ptr<const scaling::ScalingModel> scaling =
      resolve_scaling(request, table);
  options.sampler.scaling = scaling.get();
  std::vector<Prediction> predictions;
  predictions.reserve(request.procs.size());
  for (const int procs : request.procs) {
    predictions.push_back(
        predict(model, procs, request.overrides, table, options));
  }
  return format_report(request, model, table.size(), predictions);
}

}  // namespace pevpm
