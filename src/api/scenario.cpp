#include "api/scenario.h"

#include "common/check.h"
#include "fsp/taillard.h"

namespace fsbb::api {

Workload make_class_workload(int jobs, int machines,
                             std::size_t freeze_target) {
  Workload w;
  w.instance = std::make_unique<fsp::Instance>(
      fsp::taillard_class_representative(jobs, machines));
  w.data = std::make_unique<fsp::LowerBoundData>(
      fsp::LowerBoundData::build(*w.instance));
  w.frozen = core::freeze_pool(*w.instance, *w.data, freeze_target);
  return w;
}

Workload make_workload(const InstanceSpec& spec, std::size_t freeze_target,
                       std::optional<fsp::Time> initial_ub) {
  Workload w;
  w.instance = std::make_unique<fsp::Instance>(make_one_instance(spec));
  w.data = std::make_unique<fsp::LowerBoundData>(
      fsp::LowerBoundData::build(*w.instance));
  w.frozen = core::freeze_pool(*w.instance, *w.data, freeze_target, initial_ub);
  return w;
}

gpubb::OffloadScenario measure_offload(gpusim::SimDevice& device,
                                       const Workload& workload,
                                       const SolverConfig& config,
                                       std::size_t frontier_nodes) {
  return gpubb::measure_scenario(device, workload.inst(), workload.lb(),
                                 config.placement, workload.frozen.nodes,
                                 frontier_nodes, config.block_threads);
}

}  // namespace fsbb::api
