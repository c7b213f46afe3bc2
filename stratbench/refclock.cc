// The benchmark's clock: wall time scaled to a reference core speed.
//
// On a shared virtual machine, such as the reference host in README.md
// (4 vCPUs of an Intel Xeon, 300 MiB of shared L3), the speed of the cores
// moves with the load of the other tenants: in steps that last minutes,
// the same run went 1.6-1.8x slower (turbo clock and the core and caches
// shared with neighbours).
// The clock therefore re-measures the speed of a fixed calibration kernel
// every kCalibrateEveryNs of wall time and scales the wall time that
// follows by kReferenceKernelNs over the kernel's recent median time. The
// kernel's own time is not counted.
//
// The kernel is library-style C++ of the kind stratlearn's hot paths are
// made of. Its first half is string hashing, hash-map probes over a table
// that fits in the private L2 cache, a small allocation and a
// data-dependent branch; of the kernels tried (a dependent multiply
// chain, independent multiply streams, L1- and L2-resident table walks),
// it followed the workloads' speed steps most closely. Its second half is
// printf-style number formatting into a string, the core of the JSONL
// trace and audit output that dominates pao_traced: with the first half
// alone, pao_traced still sped up 1.5x more than the kernel from a slow
// period to a fast one.
#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "harness.h"

namespace stratbench {
namespace {

constexpr int64_t kCalibrateEveryNs = 20'000'000;
constexpr int kKernelRounds = 1500;
constexpr int kFormatRounds = 160;
constexpr size_t kKernelKeys = 2048;
constexpr size_t kRecent = 5;  // calibrations the median is taken over

volatile uint64_t g_kernel_sink;

struct KernelState {
  std::unordered_map<std::string, int> map;
  std::vector<std::string> keys;
  KernelState() {
    for (size_t i = 0; i < kKernelKeys; ++i) {
      std::string key = std::to_string(i * 7919);
      key.insert(key.begin(), 'k');
      map[key] = static_cast<int>(i);
      keys.push_back(std::move(key));
    }
  }
};

__attribute__((noinline)) void Kernel(const KernelState& state) {
  uint64_t acc = 0;
  uint32_t x = 12345;
  for (int i = 0; i < kKernelRounds; ++i) {
    x = x * 1664525u + 1013904223u;
    std::string probe = state.keys[x % state.keys.size()];
    probe.push_back('x');
    probe.pop_back();
    auto it = state.map.find(probe);
    std::vector<uint32_t> v;
    v.reserve(4);
    v.push_back(x);
    v.push_back(it == state.map.end() ? 0u : static_cast<uint32_t>(it->second));
    if (v[1] & 1u) {
      acc += v[0];
    } else {
      acc ^= v[1];
    }
  }
  std::string out;
  out.reserve(4096);
  double d = 0.1;
  for (int i = 0; i < kFormatRounds; ++i) {
    x = x * 1664525u + 1013904223u;
    d = d * 1.37 + static_cast<double>(x & 1023u) / 7.0;
    char buf[64];
    int n = std::snprintf(buf, sizeof(buf), "%.17g,%u,", d, x);
    if (n > 0) out.append(buf, static_cast<size_t>(n));
    if (out.size() > 3000) out.clear();
  }
  g_kernel_sink = acc + out.size();
}

class RefClock {
 public:
  RefClock() {
    for (size_t i = 0; i < kRecent; ++i) Calibrate();
    last_wall_ns_ = WallNs();
    next_calibration_ns_ = last_wall_ns_ + kCalibrateEveryNs;
  }

  int64_t Now() {
    int64_t wall = WallNs();
    ref_ns_ += static_cast<int64_t>(
        static_cast<double>(wall - last_wall_ns_) * factor_);
    last_wall_ns_ = wall;
    if (wall >= next_calibration_ns_) {
      Calibrate();
      last_wall_ns_ = WallNs();
      next_calibration_ns_ = last_wall_ns_ + kCalibrateEveryNs;
    }
    return ref_ns_;
  }

  double factor() const { return factor_; }

 private:
  // Times the second of two back-to-back kernel runs, so that the first
  // brings its table back into cache whatever the workload left there.
  void Calibrate() {
    Kernel(state_);
    int64_t t0 = WallNs();
    Kernel(state_);
    recent_[count_++ % kRecent] = static_cast<double>(WallNs() - t0);
    size_t n = std::min(count_, kRecent);
    std::array<double, kRecent> sorted = recent_;
    std::nth_element(sorted.begin(), sorted.begin() + n / 2,
                     sorted.begin() + n);
    factor_ = kReferenceKernelNs / sorted[n / 2];
  }

  KernelState state_;
  std::array<double, kRecent> recent_{};
  size_t count_ = 0;
  double factor_ = 1.0;
  int64_t ref_ns_ = 0;
  int64_t last_wall_ns_ = 0;
  int64_t next_calibration_ns_ = 0;
};

RefClock& Clock() {
  static RefClock clock;
  return clock;
}

}  // namespace

int64_t NowNs() { return Clock().Now(); }

double CoreSpeed() { return Clock().factor(); }

}  // namespace stratbench
