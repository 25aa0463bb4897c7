#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <string>

#include "bench.h"

// Counting global operator new: the traced run reads the calling
// thread's count before and after each public call to attribute heap
// allocations to a layer.  Deletes go straight to free.
namespace {
thread_local std::uint64_t t_allocs = 0;

void* CountedAlloc(std::size_t size) noexcept {
  ++t_allocs;
  return std::malloc(size == 0 ? 1 : size);
}
}  // namespace

void* operator new(std::size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace perfbench {

std::uint64_t ThreadAllocs() noexcept { return t_allocs; }

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

namespace {
// P[X <= k] for X ~ Binomial(n, p), summed in log space.
double BinomialCdf(std::uint64_t k, std::uint64_t n, double p) {
  if (p <= 0.0) return 1.0;
  if (p >= 1.0) return k >= n ? 1.0 : 0.0;
  const double nn = static_cast<double>(n);
  double sum = 0.0;
  for (std::uint64_t i = 0; i <= k; ++i) {
    const double ii = static_cast<double>(i);
    const double log_term = std::lgamma(nn + 1) - std::lgamma(ii + 1) -
                            std::lgamma(nn - ii + 1) + ii * std::log(p) +
                            (nn - ii) * std::log1p(-p);
    sum += std::exp(log_term);
  }
  return std::min(sum, 1.0);
}
}  // namespace

double LossUpperBound95(std::uint64_t lost, std::uint64_t n) {
  if (n == 0) return 1.0;
  if (lost >= n) return 1.0;
  if (lost == 0) {
    return 1.0 - std::pow(0.05, 1.0 / static_cast<double>(n));
  }
  // Largest p with P[X <= lost] >= 0.05, by bisection.
  double lo = static_cast<double>(lost) / static_cast<double>(n), hi = 1.0;
  for (int it = 0; it < 100; ++it) {
    const double mid = 0.5 * (lo + hi);
    if (BinomialCdf(lost, n, mid) >= 0.05) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

bool ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

double PeakRssMiB() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

namespace {
// 64-bit FNV-1a.
std::uint64_t Fnv(std::string_view bytes,
                  std::uint64_t h = 1469598103934665603ULL) noexcept {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t FnvWord(std::uint64_t word, std::uint64_t h) noexcept {
  char bytes[sizeof word];
  std::memcpy(bytes, &word, sizeof word);
  return Fnv(std::string_view(bytes, sizeof bytes), h);
}
}  // namespace

std::uint64_t EventFingerprint(const sld::core::DigestEvent& ev) noexcept {
  std::uint64_t h = Fnv(ev.Format());
  std::uint64_t score_bits = 0;
  std::memcpy(&score_bits, &ev.score, sizeof score_bits);
  h = FnvWord(score_bits, h);
  for (const std::size_t m : ev.messages) h = FnvWord(m, h);
  return h;
}

std::uint64_t SortedEventsFingerprint(
    const std::vector<sld::core::DigestEvent>& events) {
  std::vector<std::uint64_t> prints;
  prints.reserve(events.size());
  for (const auto& ev : events) prints.push_back(EventFingerprint(ev));
  std::sort(prints.begin(), prints.end());
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::uint64_t p : prints) h = FnvWord(p, h);
  return FnvWord(prints.size(), h);
}

void EventHash::Add(const sld::core::DigestEvent& ev) noexcept {
  hash = FnvWord(EventFingerprint(ev), hash);
  ++count;
}

}  // namespace perfbench
