#include "ledger.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "nn/quantize.hpp"

namespace perfbench {

using yoloc::EngineKind;

namespace {

constexpr std::size_t kMaxViolations = 16;

std::uint64_t total_macs(const yoloc::ExecutionContext& ctx) {
  return ctx.rom_stats().macs + ctx.sram_stats().macs;
}

std::uint64_t total_adc(const yoloc::ExecutionContext& ctx) {
  return ctx.rom_stats().array.adc_conversions +
         ctx.sram_stats().array.adc_conversions;
}

bool close_enough(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(std::fabs(a), std::fabs(b));
}

}  // namespace

LayerLedger::LayerLedger(yoloc::DeploymentPlan& plan,
                         const yoloc::ExecutionContext& ctx)
    : ctx_(&ctx),
      last_macs_(total_macs(ctx)),
      last_adc_(total_adc(ctx)),
      last_rom_pj_(ctx.rom_stats().energy_pj()),
      last_sram_pj_(ctx.sram_stats().energy_pj()) {
  yoloc::for_each_quantized_layer(
      plan.model(), [&](yoloc::QuantConv2d* conv, yoloc::QuantLinear* fc) {
        Layer l;
        l.conv = conv != nullptr;
        l.name = conv != nullptr ? conv->name() : fc->name();
        l.engine = conv != nullptr ? conv->engine_kind() : fc->engine_kind();
        l.out_channels =
            conv != nullptr ? conv->out_channels() : fc->out_features();
        index_.emplace(l.name, static_cast<int>(layers_.size()));
        layers_.push_back(std::move(l));
      });
}

void LayerLedger::begin_execute(std::uint64_t start_ns) {
  exec_start_ = start_ns;
  last_span_end_ = start_ns;
  exec_span_ns_ = 0;
}

void LayerLedger::end_execute(std::uint64_t end_ns, int images) {
  if (last_span_end_ > end_ns && violations_.size() < kMaxViolations) {
    violations_.push_back("a layer span ends after its execute call");
  }
  const std::uint64_t exec_ns = end_ns - exec_start_;
  execute_ns_ += exec_ns;
  span_ns_ += exec_span_ns_;
  images_ += images;
}

void LayerLedger::layer_span(const char* phase, const char* layer,
                             EngineKind engine, std::uint64_t start_ns,
                             std::uint64_t end_ns) {
  const auto it = index_.find(layer);
  if (it == index_.end()) {
    if (violations_.size() < kMaxViolations) {
      violations_.push_back(std::string("span for unknown layer ") + layer);
    }
    return;
  }
  Layer& l = layers_[static_cast<std::size_t>(it->second)];
  if ((start_ns < last_span_end_ || end_ns < start_ns || engine != l.engine) &&
      violations_.size() < kMaxViolations) {
    violations_.push_back("span of " + l.name +
                          " overlaps another, leaves its execute window or "
                          "names the wrong engine");
  }
  last_span_end_ = end_ns;
  const std::uint64_t ns = end_ns - start_ns;
  exec_span_ns_ += ns;
  if (std::strcmp(phase, "im2col") == 0) {
    l.im2col_ns += ns;
    return;
  }
  l.mvm_ns += ns;
  // Everything the macros counted since the previous mvm span belongs to
  // this layer's MVM; the other engine must not have moved.
  const std::uint64_t macs = total_macs(*ctx_);
  const std::uint64_t adc = total_adc(*ctx_);
  const double rom_pj = ctx_->rom_stats().energy_pj();
  const double sram_pj = ctx_->sram_stats().energy_pj();
  const bool rom = l.engine == EngineKind::kRom;
  const double own = rom ? rom_pj - last_rom_pj_ : sram_pj - last_sram_pj_;
  const double other = rom ? sram_pj - last_sram_pj_ : rom_pj - last_rom_pj_;
  if (other != 0.0 && violations_.size() < kMaxViolations) {
    violations_.push_back(l.name + " charged energy to the other engine");
  }
  l.macs += macs - last_macs_;
  l.adc_reads += adc - last_adc_;
  l.modeled_pj += own;
  last_macs_ = macs;
  last_adc_ = adc;
  last_rom_pj_ = rom_pj;
  last_sram_pj_ = sram_pj;
}

std::vector<std::string> LayerLedger::check() const {
  std::vector<std::string> out = violations_;
  std::uint64_t macs = 0;
  std::uint64_t adc = 0;
  double rom_pj = 0.0;
  double sram_pj = 0.0;
  for (const Layer& l : layers_) {
    if (l.mvm_ns == 0 || (l.conv && l.im2col_ns == 0)) {
      out.push_back("layer " + l.name + " never reported its spans");
    }
    macs += l.macs;
    adc += l.adc_reads;
    (l.engine == EngineKind::kRom ? rom_pj : sram_pj) += l.modeled_pj;
  }
  const yoloc::ExecutionContext& ctx = *ctx_;
  if (macs != total_macs(ctx)) {
    out.push_back("per-layer MACs do not sum to the context's MACs");
  }
  if (adc != total_adc(ctx)) {
    out.push_back("per-layer ADC reads do not sum to the context's reads");
  }
  if (!close_enough(rom_pj, ctx.rom_stats().energy_pj()) ||
      !close_enough(sram_pj, ctx.sram_stats().energy_pj()) ||
      !close_enough(rom_pj + sram_pj, ctx.total_energy_pj())) {
    out.push_back("per-layer modeled pJ do not sum to total_energy_pj()");
  }
  if (ctx.rom_stats().energy_pj() + ctx.sram_stats().energy_pj() !=
      ctx.total_energy_pj()) {
    out.push_back("ROM plus SRAM energy differs from total_energy_pj()");
  }
  if (span_ns_ > execute_ns_) {
    out.push_back("layer spans add up to more than the execute time");
  }
  return out;
}

}  // namespace perfbench
