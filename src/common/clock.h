// Clock abstraction.
//
// The Mrs runtime measures wall time (RealClock); the Hadoop baseline is a
// discrete-event simulation whose time is advanced explicitly
// (VirtualClock).  Benches mix the two deliberately: Mrs columns are real
// seconds, hadoopsim columns are simulated seconds — see DESIGN.md §1.
#pragma once

#include <chrono>
#include <cstdint>

namespace mrs {

/// Monotonic seconds source.
class Clock {
 public:
  virtual ~Clock() = default;
  /// Seconds since an arbitrary epoch (monotonic).
  virtual double Now() const = 0;
};

/// Wall-clock backed by steady_clock.
class RealClock final : public Clock {
 public:
  double Now() const override {
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
  }

  /// Process-wide instance.
  static RealClock& Instance();
};

/// Manually advanced clock for simulations and tests.
class VirtualClock final : public Clock {
 public:
  double Now() const override { return now_; }
  void AdvanceTo(double t) {
    if (t > now_) now_ = t;
  }
  void AdvanceBy(double dt) {
    if (dt > 0) now_ += dt;
  }

 private:
  double now_ = 0.0;
};

/// The steady_clock time `seconds` from now, for CondVar::WaitUntil.
inline std::chrono::steady_clock::time_point DeadlineAfter(double seconds) {
  return std::chrono::steady_clock::now() +
         std::chrono::duration_cast<std::chrono::steady_clock::duration>(
             std::chrono::duration<double>(seconds));
}

/// Scoped stopwatch against a Clock (defaults to real time).
class Stopwatch {
 public:
  explicit Stopwatch(const Clock& clock = RealClock::Instance())
      : clock_(&clock), start_(clock.Now()) {}
  double ElapsedSeconds() const { return clock_->Now() - start_; }
  void Restart() { start_ = clock_->Now(); }

 private:
  const Clock* clock_;
  double start_;
};

}  // namespace mrs
