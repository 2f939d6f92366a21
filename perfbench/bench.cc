#include "perfbench/bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "src/base/logging.h"
#include "src/base/rng.h"

namespace perfbench {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(values.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 50.0); }

std::size_t SamplesBeyond(const std::vector<double>& values, double q) {
  const double p = Percentile(values, q);
  return static_cast<std::size_t>(
      std::count_if(values.begin(), values.end(), [p](double v) { return v > p; }));
}

namespace {

std::vector<double> Ranks(const std::vector<double>& v) {
  std::vector<std::size_t> order(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) { return v[a] < v[b]; });
  std::vector<double> ranks(v.size());
  std::size_t i = 0;
  while (i < order.size()) {
    std::size_t j = i;
    while (j + 1 < order.size() && v[order[j + 1]] == v[order[i]]) {
      ++j;
    }
    const double avg = 0.5 * static_cast<double>(i + j);
    for (std::size_t k = i; k <= j; ++k) {
      ranks[order[k]] = avg;
    }
    i = j + 1;
  }
  return ranks;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

double Spearman(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size() || a.size() < 3) {
    return 0.0;
  }
  const std::vector<double> ra = Ranks(a);
  const std::vector<double> rb = Ranks(b);
  const double n = static_cast<double>(a.size());
  double ma = 0.0, mb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ma += ra[i] / n;
    mb += rb[i] / n;
  }
  double cov = 0.0, va = 0.0, vb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    cov += (ra[i] - ma) * (rb[i] - mb);
    va += (ra[i] - ma) * (ra[i] - ma);
    vb += (rb[i] - mb) * (rb[i] - mb);
  }
  return va > 0.0 && vb > 0.0 ? cov / std::sqrt(va * vb) : 0.0;
}

void Record::Set(const std::string& name, double value, const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Record::Info(const std::string& key, const std::string& text) {
  info_[key] = JsonString(text);
}

void Record::InfoNum(const std::string& key, double value) { info_[key] = JsonNumber(value); }

double Record::Get(const std::string& name) const {
  const auto it = metrics_.find(name);
  NEOCPU_CHECK(it != metrics_.end()) << "metric " << name << " was never set";
  return it->second.first;
}

std::string Record::ToJson(bool correct, std::uint64_t attempted,
                           std::uint64_t failed) const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
     << ", \"failed\": " << failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics_) {
    os << (first ? "" : ", ") << JsonString(name) << ": {\"value\": " << JsonNumber(vu.first)
       << ", \"unit\": " << JsonString(vu.second) << "}";
    first = false;
  }
  os << "}, \"info\": {";
  first = true;
  for (const auto& [key, value] : info_) {
    os << (first ? "" : ", ") << JsonString(key) << ": " << value;
    first = false;
  }
  os << "}}";
  return os.str();
}

std::string Params::Str(const std::string& key) const {
  const auto it = values_.find(key);
  NEOCPU_CHECK(it != values_.end()) << "workload parameter '" << key << "' is not set";
  return it->second;
}

double Params::Num(const std::string& key) const {
  const std::string s = Str(key);
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  NEOCPU_CHECK(end != s.c_str() && *end == '\0')
      << "workload parameter '" << key << "' is not a number: " << s;
  return v;
}

std::vector<double> Params::NumList(const std::string& key) const {
  std::vector<double> out;
  std::stringstream ss(Str(key));
  std::string item;
  while (std::getline(ss, item, ',')) {
    char* end = nullptr;
    const double v = std::strtod(item.c_str(), &end);
    NEOCPU_CHECK(end != item.c_str() && *end == '\0')
        << "workload parameter '" << key << "' has a non-number: " << item;
    out.push_back(v);
  }
  return out;
}

std::vector<neocpu::Tensor> MakeInputPool(const std::vector<std::int64_t>& dims, int count,
                                          std::uint64_t seed) {
  neocpu::Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x5eedull);
  std::vector<neocpu::Tensor> pool;
  pool.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    pool.push_back(neocpu::Tensor::Random(
        dims, rng, 0.0f, 1.0f,
        dims.size() == 4 ? neocpu::Layout::NCHW() : neocpu::Layout::Flat()));
  }
  return pool;
}

bool Reference::Save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  const std::uint64_t count = outputs.size();
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  for (const std::vector<float>& o : outputs) {
    const std::uint64_t n = o.size();
    out.write(reinterpret_cast<const char*>(&n), sizeof(n));
    out.write(reinterpret_cast<const char*>(o.data()),
              static_cast<std::streamsize>(n * sizeof(float)));
  }
  return static_cast<bool>(out);
}

bool Reference::Load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::uint64_t count = 0;
  if (!in.read(reinterpret_cast<char*>(&count), sizeof(count)) || count > (1u << 20)) {
    return false;
  }
  outputs.assign(count, {});
  for (std::vector<float>& o : outputs) {
    std::uint64_t n = 0;
    if (!in.read(reinterpret_cast<char*>(&n), sizeof(n)) || n > (1u << 24)) {
      return false;
    }
    o.resize(n);
    if (!in.read(reinterpret_cast<char*>(o.data()), static_cast<std::streamsize>(n * sizeof(float)))) {
      return false;
    }
  }
  return true;
}

bool OutputCheck::Pass(const neocpu::Tensor& y, const std::vector<float>& ref,
                       double* rel_err) const {
  *rel_err = 1e30;
  if (!y.defined() || y.dtype() != neocpu::DType::kF32 ||
      static_cast<std::size_t>(y.NumElements()) != ref.size() || ref.empty()) {
    return false;
  }
  const float* p = y.data();
  double mean = 0.0;
  for (float r : ref) {
    mean += r;
  }
  mean /= static_cast<double>(ref.size());
  double diff2 = 0.0, spread2 = 0.0;
  std::size_t top_y = 0, top_ref = 0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    if (!std::isfinite(p[i])) {
      return false;
    }
    const double d = static_cast<double>(p[i]) - ref[i];
    diff2 += d * d;
    spread2 += (ref[i] - mean) * (ref[i] - mean);
    top_y = p[i] > p[top_y] ? i : top_y;
    top_ref = ref[i] > ref[top_ref] ? i : top_ref;
  }
  if (spread2 <= 0.0) {
    return false;
  }
  *rel_err = std::sqrt(diff2 / spread2);
  const double spread = std::sqrt(spread2 / static_cast<double>(ref.size()));
  const bool top1 = top_y == top_ref || ref[top_ref] - ref[top_y] <= tolerance * spread;
  return *rel_err <= tolerance && top1;
}

}  // namespace perfbench
