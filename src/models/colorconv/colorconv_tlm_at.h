// TLM approximately-timed model of the ColorConv IP.
//
// Streaming protocol: the initiator issues one write transaction per pixel
// (back to back during a burst) and one read transaction per pixel whose
// completion is annotated with the full 8-cycle pipeline latency. The
// control signal rdy_next_cycle disappears from the interface (it is the
// abstracted signal of the ColorConv suite).
//
// Events exposed per burst of n pixels starting at T0 (c = clock period):
//   T0 + i*c         write end   ds=1, pixel i, sof on the first pixel
//   T0 + n*c         idle mark   ds=0            (ds falling instant)
//   T0 + i*c + 8c    read end    rdy=1, y/cb/cr of pixel i
//   T0 + (n+8)*c     idle mark   rdy=0           (rdy falling instant)
// which covers every instant where a preserved interface signal changes at
// RTL (Def. III.1). The idle marks are emitted by the testbench through
// emit_idle().
#ifndef REPRO_MODELS_COLORCONV_COLORCONV_TLM_AT_H_
#define REPRO_MODELS_COLORCONV_COLORCONV_TLM_AT_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "models/colorconv/colorconv_core.h"
#include "tlm/recorder.h"
#include "tlm/socket.h"

namespace repro::models {

class ColorConvTlmAt : public tlm::TargetIf {
 public:
  ColorConvTlmAt(sim::Kernel& kernel, tlm::TransactionRecorder* recorder,
                 sim::Time clock_period_ns)
      : kernel_(kernel), recorder_(recorder), period_(clock_period_ns) {}

  // Write payload data: {r, g, b, sof}; completes instantly (the pipeline
  // accepts one pixel per cycle). Read payload: returns {y, cb, cr} with the
  // 8-cycle latency annotated.
  void b_transport(tlm::Payload& payload, sim::Time& delay) override;

  // Emits an idle-phase record at `at` (>= now) marking a falling edge of
  // ds and/or rdy; the snapshot is computed from the in-flight pixels.
  void emit_idle(sim::Time at);

  // Must be called before the first monitored transaction.
  void set_static_observable(const std::string& name, uint64_t value) {
    statics_.emplace_back(name, value);
  }

  static constexpr int kLatencyCycles = 8;

 private:
  enum : size_t { kDsIdx, kR, kG, kB, kSof, kY, kCb, kCr, kRdy };

  struct InFlight {
    sim::Time done = 0;
    Ycbcr result;
    bool read_issued = false;
  };

  bool rdy_at(sim::Time t) const;
  Ycbcr out_at(sim::Time t) const;
  void prune(sim::Time now);
  support::Snapshot snapshot(bool ds, uint8_t r, uint8_t g, uint8_t b,
                         uint64_t sof, sim::Time at);

  sim::Kernel& kernel_;
  tlm::TransactionRecorder* recorder_;
  sim::Time period_;
  std::vector<std::pair<std::string, uint64_t>> statics_;
  std::shared_ptr<const support::Snapshot::Keys> keys_;
  support::Snapshot proto_;

  std::deque<InFlight> in_flight_;
  Ycbcr last_out_{};
};

}  // namespace repro::models

#endif  // REPRO_MODELS_COLORCONV_COLORCONV_TLM_AT_H_
