// mrs.main: the program entry point.
//
// A Mrs program's main() is one line:
//
//   int main(int argc, char** argv) { return mrs::Main<WordCount>(argc, argv); }
//
// --mrs-impl selects the execution implementation (paper §IV-A):
//   serial        run everything sequentially in memory (default)
//   mockparallel  same task decomposition, one task at a time (seeded
//                 shuffled order), data via files
//   thread        true shared-memory parallelism: tasks run concurrently
//                 on a work-stealing pool of --mrs-workers threads
//   masterslave   in-process cluster: master + N slave threads over loopback
//                 TCP + XML-RPC
//   master        be a master: listen, write --mrs-port-file, wait for
//                 --mrs-num-slaves slaves, run the program
//   slave         be a slave: connect to --mrs-master host:port and work
//                 until told to quit
//   bypass        call the program's Bypass() method
//
// All implementations must produce identical output for the same program,
// arguments and seed; differences indicate a bug (paper §IV-A).
#pragma once

#include <memory>

#include "core/job.h"
#include "core/program.h"

namespace mrs {

/// Run a program built by `factory`.  Returns a process exit code.
int RunMain(const ProgramFactory& factory, int argc, const char* const* argv);

/// Typed convenience wrapper.
template <typename Program>
int Main(int argc, const char* const* argv) {
  return RunMain([] { return std::unique_ptr<MapReduce>(new Program()); },
                 argc, argv);
}

/// Library-friendly variants that run a single already-parsed program
/// in-process and surface Status (used heavily by tests and benches).
struct RunConfig {
  std::string impl = "serial";   // serial | mockparallel | thread | masterslave
  int num_slaves = 2;
  int tasks_per_slave = 2;
  int num_workers = 0;           // thread; 0 = hardware concurrency
  std::string tmpdir;            // mockparallel; empty = fresh temp dir
  bool shared_files = false;     // masterslave: file:// buckets
  int first_slave_faults = 0;    // masterslave fault injection
};

/// Run `program` (already Init()ed) under the given implementation.  Every
/// implementation takes its default split count, num_slaves ×
/// tasks_per_slave, from `config`; masterslave also reads the elasticity
/// flags from program->opts().  RunMain dispatches here for the same four
/// implementations.
Status RunProgram(const ProgramFactory& factory, MapReduce* program,
                  const RunConfig& config);

}  // namespace mrs
