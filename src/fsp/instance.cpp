#include "fsp/instance.h"

#include <limits>

#include "common/check.h"

namespace fsbb::fsp {

Time checked_time(std::int64_t value) {
  FSBB_CHECK_MSG(value >= 0, "processing times must be non-negative (got " +
                                 std::to_string(value) + ")");
  FSBB_CHECK_MSG(value <= std::numeric_limits<Time>::max(),
                 "processing time " + std::to_string(value) +
                     " exceeds the largest supported time " +
                     std::to_string(std::numeric_limits<Time>::max()));
  return static_cast<Time>(value);
}

Instance::Instance(std::string name, Matrix<Time> pt)
    : name_(std::move(name)), pt_(std::move(pt)) {
  FSBB_CHECK_MSG(pt_.rows() >= 1, "instance needs at least one job");
  FSBB_CHECK_MSG(pt_.cols() >= 1, "instance needs at least one machine");
  std::int64_t total = 0;
  for (const Time t : pt_.flat()) {
    FSBB_CHECK_MSG(t >= 0, "processing times must be non-negative");
    total += t;
  }
  FSBB_CHECK_MSG(total < std::numeric_limits<Time>::max(),
                 "total work " + std::to_string(total) +
                     " must stay below " +
                     std::to_string(std::numeric_limits<Time>::max()));
  total_work_ = static_cast<Time>(total);
}

}  // namespace fsbb::fsp
