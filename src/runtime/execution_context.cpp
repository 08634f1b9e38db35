#include "runtime/execution_context.hpp"

#include "common/check.hpp"
#include "runtime/deployment_plan.hpp"

namespace yoloc {

ExecutionContext::ExecutionContext(const DeploymentPlan& plan,
                                   std::uint64_t noise_seed)
    : plan_(&plan), seed_(noise_seed) {}

Tensor ExecutionContext::infer(const Tensor& images) {
  return plan_->execute(images, *this);
}

void ExecutionContext::reseed(std::uint64_t noise_seed) {
  segments_.clear();
  seed_ = noise_seed;
  noise_.calls = 0;
}

void ExecutionContext::reseed(std::vector<NoiseSegment> segments) {
  segments_ = std::move(segments);
  noise_.calls = 0;
}

void ExecutionContext::key_images(int images) {
  noise_.images.clear();
  if (segments_.empty()) {
    for (int i = 0; i < images; ++i) {
      noise_.images.push_back(image_noise_key(seed_, i));
    }
    return;
  }
  for (const NoiseSegment& s : segments_) {
    for (int i = 0; i < s.images; ++i) {
      noise_.images.push_back(image_noise_key(s.seed, i));
    }
  }
  YOLOC_CHECK(noise_.images.size() == static_cast<std::size_t>(images),
              "execution context: noise segments do not cover the batch");
}

void ExecutionContext::reset_stats() {
  rom_stats_ = MacroRunStats{};
  sram_stats_ = MacroRunStats{};
}

double ExecutionContext::total_energy_pj() const {
  return rom_stats_.energy_pj() + sram_stats_.energy_pj();
}

}  // namespace yoloc
