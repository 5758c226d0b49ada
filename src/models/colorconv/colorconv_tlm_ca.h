// TLM cycle-accurate model of the ColorConv IP: one write transaction per
// clock cycle, carrying {ds, r, g, b, sof}; returns {rdy, y, cb, cr,
// rdy_next_cycle} and a full observables snapshot. `sof` (start of frame /
// burst) is a testbench-driven observable, forwarded per cycle.
#ifndef REPRO_MODELS_COLORCONV_COLORCONV_TLM_CA_H_
#define REPRO_MODELS_COLORCONV_COLORCONV_TLM_CA_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "models/colorconv/colorconv_core.h"
#include "tlm/socket.h"

namespace repro::models {

class ColorConvTlmCa : public tlm::TargetIf {
 public:
  ColorConvTlmCa() = default;

  void b_transport(tlm::Payload& payload, sim::Time& delay) override;

  // Must be called before the first monitored transaction.
  void set_static_observable(const std::string& name, uint64_t value) {
    statics_.emplace_back(name, value);
  }

 private:
  enum : size_t { kDsIdx, kR, kG, kB, kSof, kY, kCb, kCr, kRdy, kRdyNc };

  const support::Snapshot& prototype();

  ColorConvPipeline core_;
  std::vector<std::pair<std::string, uint64_t>> statics_;
  std::shared_ptr<const support::Snapshot::Keys> keys_;
  support::Snapshot proto_;
};

}  // namespace repro::models

#endif  // REPRO_MODELS_COLORCONV_COLORCONV_TLM_CA_H_
