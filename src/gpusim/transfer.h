// Host <-> device transfer cost model (PCIe).
//
// Each direction of an offload iteration (paper Fig. 3: pool down, bounds
// up) is priced as latency + bytes / bandwidth. The ledger accumulates the
// modeled seconds and byte counts so harnesses can report the
// compute-to-communication ratio the paper discusses in §IV-A.
#pragma once

#include <cstddef>
#include <cstdint>

#include "gpusim/device_spec.h"

namespace fsbb::gpusim {

/// Direction of a transfer.
enum class TransferDir { kHostToDevice, kDeviceToHost };

/// Accumulated transfer activity.
struct TransferLedger {
  std::uint64_t h2d_transfers = 0;
  std::uint64_t d2h_transfers = 0;
  std::uint64_t h2d_bytes = 0;
  std::uint64_t d2h_bytes = 0;
  double h2d_seconds = 0;
  double d2h_seconds = 0;

  double total_seconds() const { return h2d_seconds + d2h_seconds; }
};

/// Prices transfers against a device's PCIe parameters.
class TransferModel {
 public:
  explicit TransferModel(const DeviceSpec& spec) : spec_(&spec) {}
  /// The model keeps a pointer to the spec: a temporary would dangle.
  TransferModel(DeviceSpec&&) = delete;

  /// Modeled seconds for one transfer of `bytes`.
  double seconds(std::size_t bytes) const;

  /// Records a transfer in the ledger and returns its modeled seconds.
  double record(TransferDir dir, std::size_t bytes, TransferLedger& ledger) const;

 private:
  const DeviceSpec* spec_;
};

}  // namespace fsbb::gpusim
