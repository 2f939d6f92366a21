// Shared pieces of the benchmark program: the metric record, workload parameters,
// seeded inputs, reference outputs and the output check.
#ifndef NEOCPU_PERFBENCH_BENCH_H_
#define NEOCPU_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/tensor/tensor.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double SecondsSince(Clock::time_point a) {
  return std::chrono::duration<double>(Clock::now() - a).count();
}

// Nearest-rank percentile (q in [0, 100]) of an unsorted sample; 0 when empty.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);
// Samples strictly above the q-th percentile: how well the sample supports that tail.
std::size_t SamplesBeyond(const std::vector<double>& values, double q);
// Spearman rank correlation (average ranks for ties); 0 when fewer than 3 pairs.
double Spearman(const std::vector<double>& a, const std::vector<double>& b);

// Everything one run reports. Metrics carry a unit; info holds the fingerprint, the
// fixed parameters and the self-checks, as JSON values already rendered.
class Record {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  void Info(const std::string& key, const std::string& text);  // stored as a string
  void InfoNum(const std::string& key, double value);
  double Get(const std::string& name) const;
  std::string ToJson(bool correct, std::uint64_t attempted, std::uint64_t failed) const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::map<std::string, std::string> info_;  // key -> rendered JSON value
};

// The fixed workload parameters, passed as --set key=value (from perfbench/workloads.json).
class Params {
 public:
  void Set(const std::string& key, const std::string& value) { values_[key] = value; }
  std::string Str(const std::string& key) const;
  double Num(const std::string& key) const;
  int Int(const std::string& key) const { return static_cast<int>(Num(key)); }
  std::vector<double> NumList(const std::string& key) const;  // comma-separated
  const std::map<std::string, std::string>& all() const { return values_; }

 private:
  std::map<std::string, std::string> values_;
};

// `count` distinct inputs of `dims`, uniform in [0, 1), derived only from `seed`.
std::vector<neocpu::Tensor> MakeInputPool(const std::vector<std::int64_t>& dims, int count,
                                          std::uint64_t seed);

// Reference outputs, one flat f32 vector per pooled input, stored as a small binary
// file between the reference process and the measuring process.
struct Reference {
  std::vector<std::vector<float>> outputs;

  bool Save(const std::string& path) const;
  bool Load(const std::string& path);
};

// Compares one output against its reference:
//  * rel_err = ||y - ref|| / ||ref - mean(ref)||, i.e. relative to the reference's
//    spread around its mean, so a zeroed or constant output reads >= 1 even when every
//    softmax probability is tiny;
//  * top-1 must agree, unless the reference's own top-2 gap is within `tolerance` of
//    its spread (a near-tie the tolerated error may legitimately reorder).
struct OutputCheck {
  double tolerance = 1e-4;

  bool Pass(const neocpu::Tensor& y, const std::vector<float>& ref, double* rel_err) const;
};

}  // namespace perfbench

#endif  // NEOCPU_PERFBENCH_BENCH_H_
