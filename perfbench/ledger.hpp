#pragma once
// Per-layer ledger of one bench-owned ExecutionContext: a LayerTraceSink
// that turns the im2col/mvm spans of every quantized layer into wall time,
// and diffs the context's ROM/SRAM run stats at each mvm span into that
// layer's MACs, ADC reads and modeled energy. The ledger checks its own
// books (see check()).

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "runtime/deployment_plan.hpp"
#include "runtime/execution_context.hpp"

namespace perfbench {

class LayerLedger final : public yoloc::LayerTraceSink {
 public:
  struct Layer {
    std::string name;
    yoloc::EngineKind engine = yoloc::EngineKind::kDefault;
    bool conv = false;
    int out_channels = 0;
    std::uint64_t im2col_ns = 0;
    std::uint64_t mvm_ns = 0;
    std::uint64_t macs = 0;
    std::uint64_t adc_reads = 0;
    double modeled_pj = 0.0;
  };

  /// Indexes the plan's quantized layers in execution order. `ctx` must
  /// execute `plan` and have this ledger installed as its layer trace.
  LayerLedger(yoloc::DeploymentPlan& plan, const yoloc::ExecutionContext& ctx);

  /// Bracket one DeploymentPlan::execute call (trace-clock nanoseconds).
  void begin_execute(std::uint64_t start_ns);
  void end_execute(std::uint64_t end_ns, int images);

  void layer_span(const char* phase, const char* layer,
                  yoloc::EngineKind engine, std::uint64_t start_ns,
                  std::uint64_t end_ns) override;

  [[nodiscard]] const std::vector<Layer>& layers() const { return layers_; }
  [[nodiscard]] int images() const { return images_; }
  [[nodiscard]] std::uint64_t execute_ns() const { return execute_ns_; }
  [[nodiscard]] std::uint64_t span_ns() const { return span_ns_; }

  /// The ledger invariants, against the context's totals since its last
  /// reset_stats() (which must coincide with this ledger's construction):
  ///  * per-layer MACs and ADC reads sum exactly to the context's counts,
  ///    and per-layer modeled pJ to total_energy_pj() (to double rounding
  ///    of the per-span differences), per engine and overall;
  ///  * ROM plus SRAM energy equals total_energy_pj() exactly;
  ///  * every span lies inside its execute window without overlapping
  ///    another, so span time plus unattributed time is the execute time;
  ///  * every quantized layer was seen, and no span named an unknown one.
  /// Returns one message per violated invariant (empty = books balance).
  [[nodiscard]] std::vector<std::string> check() const;

 private:
  const yoloc::ExecutionContext* ctx_;
  std::vector<Layer> layers_;
  std::unordered_map<std::string, int> index_;
  // Stats snapshot at the previous mvm span (what the next layer's
  // deltas are measured from).
  std::uint64_t last_macs_ = 0;
  std::uint64_t last_adc_ = 0;
  double last_rom_pj_ = 0.0;
  double last_sram_pj_ = 0.0;
  // Current execute window.
  std::uint64_t exec_start_ = 0;
  std::uint64_t last_span_end_ = 0;
  std::uint64_t exec_span_ns_ = 0;
  // Totals.
  int images_ = 0;
  std::uint64_t execute_ns_ = 0;
  std::uint64_t span_ns_ = 0;
  std::vector<std::string> violations_;
};

}  // namespace perfbench
