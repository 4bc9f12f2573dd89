#include "gpusim/transfer.h"

#include <gtest/gtest.h>

namespace fsbb::gpusim {
namespace {

TEST(TransferModel, LatencyPlusBandwidth) {
  const DeviceSpec spec = DeviceSpec::tesla_c2050();
  const TransferModel model(spec);
  // Zero bytes still pays the latency.
  EXPECT_DOUBLE_EQ(model.seconds(0), spec.pcie_latency_s);
  // One GB at 5.6 GB/s.
  const double one_gb = model.seconds(1'000'000'000);
  EXPECT_NEAR(one_gb, spec.pcie_latency_s + 1.0 / 5.6, 1e-9);
}

TEST(TransferModel, MonotoneInBytes) {
  const DeviceSpec spec = DeviceSpec::tesla_c2050();
  const TransferModel model(spec);
  double prev = 0;
  for (std::size_t bytes = 1; bytes < 1u << 28; bytes *= 4) {
    const double t = model.seconds(bytes);
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(TransferModel, LedgerAccumulatesBothDirections) {
  const DeviceSpec spec = DeviceSpec::tesla_c2050();
  const TransferModel model(spec);
  TransferLedger ledger;
  model.record(TransferDir::kHostToDevice, 1000, ledger);
  model.record(TransferDir::kHostToDevice, 2000, ledger);
  model.record(TransferDir::kDeviceToHost, 500, ledger);
  EXPECT_EQ(ledger.h2d_transfers, 2u);
  EXPECT_EQ(ledger.d2h_transfers, 1u);
  EXPECT_EQ(ledger.h2d_bytes, 3000u);
  EXPECT_EQ(ledger.d2h_bytes, 500u);
  EXPECT_GT(ledger.h2d_seconds, ledger.d2h_seconds);
  EXPECT_NEAR(ledger.total_seconds(), ledger.h2d_seconds + ledger.d2h_seconds,
              1e-15);
}

TEST(TransferModel, RecordReturnsTheModeledSeconds) {
  const DeviceSpec spec = DeviceSpec::tesla_c2050();
  const TransferModel model(spec);
  TransferLedger ledger;
  const double s = model.record(TransferDir::kDeviceToHost, 4096, ledger);
  EXPECT_DOUBLE_EQ(s, model.seconds(4096));
}

TEST(TransferModel, SmallPoolsAreLatencyDominated) {
  // The paper's small-pool regime: a 4096-node pool of 20-job nodes moves
  // ~90 KB — latency is a visible fraction of the cost.
  const DeviceSpec spec = DeviceSpec::tesla_c2050();
  const TransferModel model(spec);
  const double t = model.seconds(4096 * 22);
  EXPECT_GT(spec.pcie_latency_s / t, 0.4);
}

}  // namespace
}  // namespace fsbb::gpusim
