// The three served workloads of qcbench (see README.md for why each
// exists and which layers it stresses).
#ifndef QCBENCH_WORKLOADS_H_
#define QCBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "common.h"

namespace qcbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;       ///< Add the outside-in per-layer decomposition.
  std::string work_dir;     ///< Working directory for WAL files.
  std::string spans_out;    ///< Where the traced run writes its spans.
};

/// Names accepted by RunWorkload, space-separated.
const char* WorkloadNames();

/// Sets up, drives and checks one workload. Unknown names come back with
/// correct == false.
RunResult RunWorkload(const Options& options);

}  // namespace qcbench

#endif  // QCBENCH_WORKLOADS_H_
