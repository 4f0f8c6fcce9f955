// The thread implementation: the local runner's stage loop
// (core/serial_runner.h) with each dataset's tasks running at once on a
// pool of worker threads.  It differs from serial only in where a task
// runs, so its output is serial's, byte for byte.
#pragma once

#include <cstddef>
#include <thread>

#include "core/serial_runner.h"

namespace mrs {

class ThreadRunner final : public SerialRunner {
 public:
  /// `num_workers` <= 0 selects std::thread::hardware_concurrency().
  explicit ThreadRunner(MapReduce* program, int num_workers = 0)
      : SerialRunner(program, num_workers > 0
                                  ? static_cast<size_t>(num_workers)
                                  : std::thread::hardware_concurrency()) {}
};

}  // namespace mrs
