// Shared scaffolding for the experiment harnesses: paper-shaped (but
// laptop-scale) dataset and model builders, plus result rendering. Every
// harness accepts --users/--rounds/... flags so the experiments can be
// re-run at paper scale; the defaults complete unattended on one core.
#pragma once

#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "core/simulation.hpp"
#include "data/femnist_synth.hpp"
#include "data/shakespeare_synth.hpp"
#include "fedavg/fedavg.hpp"
#include "nn/model_zoo.hpp"
#include "support/cli.hpp"
#include "support/log.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"
#include "tangle/payload_codec.hpp"

namespace tanglefl::bench {

/// Registers the shared --payload-codec flag and parses it. Spec grammar
/// (tangle/payload_codec.hpp): "off" (the default — byte-identical to
/// pre-codec harness output), "default" (the lossless delta+entropy
/// preset), or a comma list of delta,topk[:fraction],quantize,entropy
/// (topk requires delta). A malformed spec is reported through
/// args.should_exit() with the offending token named.
inline tangle::PayloadCodecConfig parse_payload_codec_flag(ArgParser& args) {
  const std::string spec = args.get_string(
      "payload-codec", "off",
      "payload codec stages: off | default (delta,entropy) | comma list of "
      "delta,topk[:fraction],quantize,entropy (topk requires delta)");
  try {
    return tangle::parse_codec_spec(spec);
  } catch (const std::invalid_argument& error) {
    args.set_error(std::string("--payload-codec: ") + error.what());
    return {};
  }
}

/// Default FEMNIST-like scale: the paper's 3500 writers / 62 classes /
/// 28x28 images shrink to 60 / 10 / 12 so a full convergence sweep runs in
/// seconds. Structure (non-IID by writer, unbalanced, 0.8 split) is kept.
struct FemnistScale {
  std::size_t users = 60;
  std::size_t classes = 10;
  std::size_t image_size = 12;
  double mean_samples = 25.0;
  std::uint64_t seed = 42;
};

inline data::FederatedDataset make_femnist(const FemnistScale& scale) {
  data::FemnistSynthConfig config;
  config.num_users = scale.users;
  config.num_classes = scale.classes;
  config.image_size = scale.image_size;
  config.mean_samples_per_user = scale.mean_samples;
  config.train_fraction = 0.8;  // Table I
  config.seed = scale.seed;
  return data::make_femnist_synth(config);
}

inline nn::ModelFactory femnist_factory(const FemnistScale& scale) {
  nn::ImageCnnConfig config;
  config.image_size = scale.image_size;
  config.num_classes = scale.classes;
  return [config] { return nn::make_image_cnn(config); };
}

/// Default Shakespeare-like scale: 1058 roles / 80-char vocab / 80-char
/// windows shrink to 20 / 24 / 12; min 64 samples per role and the 0.9
/// split are kept from Table I.
struct ShakespeareScale {
  std::size_t users = 20;
  std::size_t vocab = 24;
  std::size_t seq_length = 12;
  double mean_chars = 400.0;
  std::uint64_t seed = 42;
};

inline data::FederatedDataset make_shakespeare(const ShakespeareScale& scale) {
  data::ShakespeareSynthConfig config;
  config.num_users = scale.users;
  config.vocab_size = scale.vocab;
  config.seq_length = scale.seq_length;
  config.mean_chars_per_user = scale.mean_chars;
  config.train_fraction = 0.9;  // Table I
  config.min_samples_per_user = 64;
  config.seed = scale.seed;
  return data::make_shakespeare_synth(config);
}

inline nn::ModelFactory shakespeare_factory(const ShakespeareScale& scale) {
  nn::CharLstmConfig config;
  config.vocab_size = scale.vocab;
  config.seq_length = scale.seq_length;
  config.embedding_dim = 12;
  config.hidden_dim = 32;
  config.lstm_layers = 2;  // "stacked LSTM", Table I
  return [config] { return nn::make_char_lstm(config); };
}

/// Training configuration mirroring Table I (lr scaled to our model sizes;
/// 1 local epoch as in the paper).
inline data::TrainConfig femnist_training() {
  data::TrainConfig config;
  config.epochs = 1;
  config.batch_size = 10;
  config.sgd.learning_rate = 0.06;  // Table I
  return config;
}

inline data::TrainConfig shakespeare_training() {
  data::TrainConfig config;
  config.epochs = 1;
  config.batch_size = 10;
  config.sgd.learning_rate = 0.8;  // Table I
  config.sgd.grad_clip = 5.0;
  return config;
}

/// One observability context per harness run: registers the shared
/// --metrics-json/--trace flags, arms the metrics registry and (optionally)
/// a Chrome trace sink, accumulates named phase timings, and writes the
/// run manifest next to the CSV output. Replaces the per-harness
/// `Stopwatch watch; ... watch.seconds()` pattern.
///
/// Usage:
///   ArgParser args(argc, argv);
///   BenchRun run("fig3_femnist_convergence", args);
///   ... register more flags ...
///   if (args.should_exit()) return 0;
///   run.start(seed);
///   { auto timer = run.phase("tangle"); ... }
///   run.finish(std::cout);
class BenchRun {
 public:
  BenchRun(std::string name, ArgParser& args)
      : manifest_path_(args.get_string(
            "metrics-json", name + "_metrics.json",
            "run-manifest JSON output path (empty to skip)")),
        trace_path_(args.get_string(
            "trace", "",
            "Chrome trace_event JSON output path (empty = tracing off)")),
        timeline_path_(args.get_string(
            "timeline", "",
            "per-round time-series JSONL output path (empty = off; a .csv "
            "sibling is written next to it)")) {
    manifest_.name = std::move(name);
  }

  ~BenchRun() {
    // A harness that returns early still detaches cleanly; the sink
    // flushes whatever was recorded.
    if (trace_sink_) obs::set_trace_sink(nullptr);
  }

  BenchRun(const BenchRun&) = delete;
  BenchRun& operator=(const BenchRun&) = delete;

  /// Arms metrics + tracing and starts the total-time clock. Call once,
  /// after the ArgParser early-exit check so --help runs stay side-effect
  /// free.
  void start(std::uint64_t seed) {
    manifest_.seed = seed;
    obs::MetricsRegistry::global().reset();
    obs::set_timing_enabled(true);
    if (!trace_path_.empty()) {
      trace_sink_ = std::make_unique<obs::TraceSink>(trace_path_);
      obs::set_trace_sink(trace_sink_.get());
    }
    total_.restart();
  }

  /// Records one configuration entry into the manifest.
  void config(const std::string& key, const std::string& value) {
    manifest_.config.emplace_back(key, value);
  }
  void config(const std::string& key, const char* value) {
    config(key, std::string(value));
  }
  void config(const std::string& key, std::int64_t value) {
    config(key, std::to_string(value));
  }
  void config(const std::string& key, std::size_t value) {
    config(key, std::to_string(value));
  }
  void config(const std::string& key, double value) {
    config(key, format_fixed(value, 6));
  }
  void config(const std::string& key, bool value) {
    config(key, std::string(value ? "true" : "false"));
  }

  /// Returns a timer adding the enclosing scope's wall time to the named
  /// phase accumulator (phases repeat and sum).
  ScopedTimer phase(const std::string& name) {
    return ScopedTimer(phase_seconds_[name]);
  }

  double seconds() const { return total_.seconds(); }

  /// Timeline sink for engine configs (SimulationConfig::timeline etc.);
  /// null when --timeline was not given, which keeps all health probing
  /// disabled.
  obs::Timeline* timeline() noexcept {
    return timeline_path_.empty() ? nullptr : &timeline_;
  }

  /// Flushes the trace, writes the manifest (full metric snapshot included)
  /// and prints the wall-time summary line.
  void finish(std::ostream& out) {
    manifest_.total_seconds = total_.seconds();
    manifest_.phase_seconds.assign(phase_seconds_.begin(),
                                   phase_seconds_.end());
    if (trace_sink_) {
      obs::set_trace_sink(nullptr);
      trace_sink_->flush();
      out << "(trace written to " << trace_sink_->path() << ")\n";
      trace_sink_.reset();
    }
    if (!manifest_path_.empty()) {
      const auto snapshot =
          obs::MetricsRegistry::global().snapshot(obs::SnapshotKind::kFull);
      if (obs::write_manifest(manifest_path_, manifest_, snapshot)) {
        out << "(run manifest written to " << manifest_path_ << ")\n";
      } else {
        out << "(failed to write run manifest " << manifest_path_ << ")\n";
      }
    }
    if (!timeline_path_.empty() && !timeline_.empty()) {
      const std::string csv_path = timeline_csv_path(timeline_path_);
      if (timeline_.write_jsonl(timeline_path_) &&
          timeline_.write_csv(csv_path)) {
        out << "(timeline written to " << timeline_path_ << " and "
            << csv_path << ")\n";
      } else {
        out << "(failed to write timeline " << timeline_path_ << ")\n";
      }
    }
    out << "total wall time: " << format_fixed(manifest_.total_seconds, 1)
        << "s\n";
  }

 private:
  /// `foo.jsonl` -> `foo.csv`; anything else gets `.csv` appended.
  static std::string timeline_csv_path(const std::string& jsonl_path) {
    const std::string suffix = ".jsonl";
    if (jsonl_path.size() > suffix.size() &&
        jsonl_path.compare(jsonl_path.size() - suffix.size(), suffix.size(),
                           suffix) == 0) {
      return jsonl_path.substr(0, jsonl_path.size() - suffix.size()) + ".csv";
    }
    return jsonl_path + ".csv";
  }

  obs::RunManifest manifest_;
  std::string manifest_path_;
  std::string trace_path_;
  std::string timeline_path_;
  obs::Timeline timeline_;
  // std::map: node-based, so the double& held by a live ScopedTimer stays
  // valid as more phases are added.
  std::map<std::string, double> phase_seconds_;
  std::unique_ptr<obs::TraceSink> trace_sink_;
  Stopwatch total_;
};

/// Prints aligned accuracy-vs-round series (one column per run), the text
/// equivalent of the paper's figures.
inline void print_series(std::ostream& out,
                         const std::vector<core::RunResult>& runs) {
  std::vector<std::string> header = {"round"};
  for (const auto& run : runs) header.push_back(run.label);
  TablePrinter table(std::move(header));
  if (runs.empty()) return;
  for (std::size_t i = 0; i < runs.front().history.size(); ++i) {
    std::vector<std::string> row = {
        std::to_string(runs.front().history[i].round)};
    for (const auto& run : runs) {
      row.push_back(i < run.history.size()
                        ? format_fixed(run.history[i].accuracy, 3)
                        : "");
    }
    table.add_row(std::move(row));
  }
  table.print(out);
}

/// Writes the same series as CSV for external plotting. Columns:
/// label,round,accuracy,loss,target_misclassification.
inline void write_series_csv(const std::string& path,
                             const std::vector<core::RunResult>& runs) {
  CsvWriter csv(path, {"label", "round", "accuracy", "loss",
                       "target_misclassification"});
  for (const auto& run : runs) {
    for (const auto& record : run.history) {
      csv.add_row({run.label, std::to_string(record.round),
                   format_fixed(record.accuracy, 5),
                   format_fixed(record.loss, 5),
                   format_fixed(record.target_misclassification, 5)});
    }
  }
  std::cout << "\n(series written to " << path << ")\n";
}

}  // namespace tanglefl::bench
