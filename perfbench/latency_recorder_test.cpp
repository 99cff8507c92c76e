// Accuracy test of LatencyRecorder: percentiles of synthetic samples must
// match an exact nearest-rank sort within LatencyRecorder::kRelativeError.
//
//   ./latency_recorder_test     (exit code 0 = pass)
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "latency_recorder.hpp"

namespace {

using olive::perfbench::LatencyRecorder;

int failures = 0;

double exact_percentile(std::vector<std::uint64_t> v, double p) {
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return static_cast<double>(v[rank - 1]);
}

void check(const std::string& name, const std::vector<std::uint64_t>& samples) {
  LatencyRecorder whole, half_a, half_b;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    whole.record(samples[i]);
    (i % 2 ? half_a : half_b).record(samples[i]);
  }
  half_a.merge(half_b);
  for (const double p : {0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 0.9999, 1.0}) {
    const double exact = exact_percentile(samples, p);
    for (const LatencyRecorder* r : {&whole, &half_a}) {
      const double got = r->percentile(p);
      if (std::fabs(got - exact) > exact * LatencyRecorder::kRelativeError) {
        std::printf("FAIL %s p=%g exact=%.1f got=%.1f\n", name.c_str(), p, exact, got);
        ++failures;
      }
    }
  }
  if (whole.count() != samples.size() || half_a.count() != samples.size()) {
    std::printf("FAIL %s count\n", name.c_str());
    ++failures;
  }
}

}  // namespace

int main() {
  std::mt19937_64 gen(20251017);
  const std::size_t n = 200000;

  std::vector<std::uint64_t> v(n);
  std::lognormal_distribution<double> lognormal(std::log(40000.0), 1.2);
  for (auto& x : v) x = static_cast<std::uint64_t>(lognormal(gen));
  check("lognormal", v);

  std::uniform_int_distribution<std::uint64_t> small(0, 300);
  for (auto& x : v) x = small(gen);
  check("uniform-small", v);

  std::uniform_int_distribution<std::uint64_t> wide(0, std::uint64_t{1} << 40);
  for (auto& x : v) x = wide(gen);
  check("uniform-wide", v);

  // A bimodal mix like planned (~2 us) vs greedy (~30 us) admissions, with a
  // rare multi-millisecond stall tail.
  std::normal_distribution<double> fast(2000, 300), slow(30000, 6000);
  std::uniform_real_distribution<double> u(0, 1);
  for (auto& x : v) {
    const double d = u(gen) < 0.8 ? fast(gen) : u(gen) < 0.995 ? slow(gen) : 5e6 * u(gen);
    x = static_cast<std::uint64_t>(std::max(0.0, d));
  }
  check("bimodal", v);

  check("constant", std::vector<std::uint64_t>(1000, 123456789));
  check("extremes", {0, 1, 127, 128, 255, 256, ~std::uint64_t{0} >> 1, ~std::uint64_t{0}});

  LatencyRecorder r;
  for (int i = 0; i < 1000; ++i) r.record(1000);
  const bool tail_ok = r.tail_quantile() == 0.99;  // 1000 * 0.01 = 10 beyond
  if (!tail_ok) {
    std::printf("FAIL tail_quantile=%g\n", r.tail_quantile());
    ++failures;
  }
  std::printf("%s (%d failures, bound %.4f relative)\n", failures ? "FAIL" : "PASS",
              failures, LatencyRecorder::kRelativeError);
  return failures ? 1 : 0;
}
