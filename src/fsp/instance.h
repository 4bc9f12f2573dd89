// Permutation flow-shop problem instance.
//
// n jobs must each visit machines M_0 .. M_{m-1} in that order; machine k
// processes job j for pt(j, k) uninterrupted time units; machines handle one
// job at a time and every machine processes jobs in the same (permutation)
// order. Objective: minimize the makespan C_max.
#pragma once

#include <cstdint>
#include <string>

#include "common/matrix.h"

namespace fsbb::fsp {

/// Job index. int16 comfortably covers the largest Taillard instances (500).
using JobId = std::int16_t;

/// Time quantity (processing times, completion times, makespans, bounds).
using Time = std::int32_t;

/// Narrows a parsed processing time to Time. Throws CheckFailure, naming
/// the value, when it is negative or above numeric_limits<Time>::max().
Time checked_time(std::int64_t value);

/// Immutable problem instance: the processing-time matrix plus metadata.
class Instance {
 public:
  /// `pt` is job-major: pt(j, k) = processing time of job j on machine k.
  /// Throws CheckFailure on empty dimensions, negative times, or a total
  /// work that is not strictly below numeric_limits<Time>::max() — the
  /// engines' no-incumbent sentinel. No makespan exceeds the total work,
  /// so every makespan then fits in Time.
  Instance(std::string name, Matrix<Time> pt);

  int jobs() const { return static_cast<int>(pt_.rows()); }
  int machines() const { return static_cast<int>(pt_.cols()); }

  Time pt(int job, int machine) const { return pt_(job, machine); }

  /// The full processing-time matrix (the paper's PTM), job-major.
  const Matrix<Time>& ptm() const { return pt_; }

  const std::string& name() const { return name_; }

  /// Sum of all processing times — a trivial upper bound on the makespan.
  Time total_work() const { return total_work_; }

  /// Number of machine couples (k, l), k < l: m * (m - 1) / 2.
  int machine_pairs() const {
    const int m = machines();
    return m * (m - 1) / 2;
  }

 private:
  std::string name_;
  Matrix<Time> pt_;
  Time total_work_ = 0;
};

}  // namespace fsbb::fsp
