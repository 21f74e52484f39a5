#pragma once

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <string_view>
#include <vector>

#include "eval/experiment.hpp"
#include "util/stats.hpp"

namespace qolsr {

/// Histogram resolution of emitted distribution summaries (JSON only; the
/// CSV carries the quantiles).
inline constexpr std::size_t kDistributionHistogramBuckets = 8;

/// What every sink reports about a distribution-shaped accumulator (probe
/// delivery, flow latency/delivery/throughput): exact quantiles plus a
/// fixed-bucket histogram over the observed range. All fields derive from
/// one ascending sort of the samples.
struct DistributionSummary {
  std::size_t count = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double min = 0.0;
  double max = 0.0;
  /// kDistributionHistogramBuckets equal-width bins over [min, max];
  /// empty when there are no samples.
  std::vector<std::size_t> histogram;
};

DistributionSummary summarize_distribution(const util::RunningStats& dist);

/// Output side of the experiment engine: formats a finished
/// ExperimentResult onto a stream. Every implementation emits the
/// per-density aggregates; the machine-readable ones (CSV, JSON) also emit
/// the per-run records when the result carries them (spec.per_run), while
/// the pretty table reports their count and defers the export to those.
class ResultSink {
 public:
  virtual ~ResultSink() = default;
  virtual std::string_view format_name() const = 0;
  virtual void write(const ExperimentResult& result,
                     std::ostream& os) const = 0;
};

/// Human-readable tables: set sizes, overheads, diagnostics, and each
/// engine's section when it ran — one list of sections (result_sink.cpp)
/// rendered through util::Table.
class PrettyTableSink final : public ResultSink {
 public:
  std::string_view format_name() const override { return "table"; }
  void write(const ExperimentResult& result, std::ostream& os) const override;
};

/// Machine-readable long-format CSV: one row per (density, protocol)
/// aggregate; per-run records follow as a second header+rows block after a
/// blank line when recorded.
class CsvSink final : public ResultSink {
 public:
  std::string_view format_name() const override { return "csv"; }
  void write(const ExperimentResult& result, std::ostream& os) const override;
};

/// One JSON document: the spec echo, per-density aggregates with full
/// RunningStats (mean/stddev/min/max), and per-run records when recorded.
/// The echoed `threads` is the one field that differs between thread
/// counts; every other byte is the same at every count.
class JsonSink final : public ResultSink {
 public:
  std::string_view format_name() const override { return "json"; }
  void write(const ExperimentResult& result, std::ostream& os) const override;
};

/// Factory over the spec's `format` field ("table", "csv", "json").
/// Throws ExperimentError on an unknown format name.
std::unique_ptr<ResultSink> make_result_sink(std::string_view format);

}  // namespace qolsr
