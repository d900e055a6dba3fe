// Percentiles, summaries and a tiny JSON writer shared by the
// benchmark's binaries.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iomanip>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (p in [0, 1]) of unsorted samples; NaN when
/// empty. Infinite samples (failures) sort last.
inline double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(samples.size()) - 1e-9));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  return samples[index];
}

/// Mean, median, p90, p99, sample count and the number of samples above
/// the p99.
struct Summary {
  double mean = 0, p50 = 0, p90 = 0, p99 = 0;
  std::size_t n = 0, beyond_p99 = 0;
};

inline Summary summarize(const std::vector<double>& samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  for (const double x : samples) s.mean += x / static_cast<double>(s.n);
  s.p50 = percentile(samples, 0.50);
  s.p90 = percentile(samples, 0.90);
  s.p99 = percentile(samples, 0.99);
  for (const double x : samples) s.beyond_p99 += x > s.p99 ? 1 : 0;
  return s;
}

/// Flat JSON object writer: numbers keep full precision, non-finite
/// numbers become null.
class JsonOut {
 public:
  JsonOut& num(const std::string& key, double value) {
    std::ostringstream v;
    if (std::isfinite(value)) {
      v << std::setprecision(17) << value;
    } else {
      v << "null";
    }
    return raw(key, v.str());
  }
  static std::string quote(const std::string& value) {
    std::string quoted = "\"";
    for (const char c : value) {
      if (c == '"' || c == '\\') {
        quoted += '\\';
        quoted += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        quoted += ' ';
      } else {
        quoted += c;
      }
    }
    return quoted + "\"";
  }
  JsonOut& str(const std::string& key, const std::string& value) {
    return raw(key, quote(value));
  }
  JsonOut& strs(const std::string& key,
                const std::vector<std::string>& values) {
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      out += (i > 0 ? ", " : "") + quote(values[i]);
    }
    return raw(key, out + "]");
  }
  JsonOut& summary(const std::string& key, const Summary& s) {
    return raw(key, JsonOut()
                        .num("mean", s.mean)
                        .num("p50", s.p50)
                        .num("p90", s.p90)
                        .num("p99", s.p99)
                        .num("n", static_cast<double>(s.n))
                        .num("beyond_p99", static_cast<double>(s.beyond_p99))
                        .text());
  }
  JsonOut& nums(const std::string& key, const std::vector<double>& values) {
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) out += ", ";
      std::ostringstream v;
      v << std::setprecision(17) << values[i];
      out += std::isfinite(values[i]) ? v.str() : "null";
    }
    return raw(key, out + "]");
  }
  JsonOut& raw(const std::string& key, const std::string& json) {
    body_ += body_.empty() ? "" : ", ";
    body_ += "\"" + key + "\": " + json;
    return *this;
  }
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// `--key value` flags after the program name, up to a bare `--`.
class Flags {
 public:
  Flags(int argc, char** argv) {
    int i = 1;
    for (; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--") {
        ++i;
        break;
      }
      if (arg.rfind("--", 0) != 0 || i + 1 >= argc) {
        throw std::invalid_argument("bad flag " + arg);
      }
      values_[arg.substr(2)] = argv[++i];
    }
    for (; i < argc; ++i) rest_.emplace_back(argv[i]);
  }
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  [[nodiscard]] double num(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::stod(it->second);
  }
  [[nodiscard]] std::vector<double> list(const std::string& key) const {
    std::vector<double> out;
    std::stringstream in(get(key, ""));
    std::string item;
    while (std::getline(in, item, ',')) {
      if (!item.empty()) out.push_back(std::stod(item));
    }
    return out;
  }
  [[nodiscard]] const std::vector<std::string>& rest() const { return rest_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> rest_;
};

}  // namespace perfbench
