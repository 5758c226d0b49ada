// TLM approximately-timed (TLM-AT) model of the DES56 IP.
//
// The I/O protocol is abstracted: one write transaction submits an
// operation, one read transaction returns the result; rdy_next_cycle and
// rdy_next_next_cycle disappear from the interface (they are the abstracted
// signals of the property suite). Four timing points per operation are
// exposed to the verification environment, mirroring the TLM-2.0 AT 4-phase
// protocol and — per Def. III.1 — covering every instant where a preserved
// interface signal changes at RTL:
//
//   T            write BEGIN_REQ   ds=1, indata/key/decrypt valid
//   T + c        write END_REQ     ds back to 0
//   T + 17c      read  BEGIN_RESP  rdy=1, out = result
//   T + 18c      read  END_RESP    rdy back to 0
//
// (c = RTL clock period.) BEGIN records are emitted by the target itself;
// END records are the socket's completion records.
#ifndef REPRO_MODELS_DES56_DES56_TLM_AT_H_
#define REPRO_MODELS_DES56_DES56_TLM_AT_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "models/des56/des_core.h"
#include "tlm/recorder.h"
#include "tlm/socket.h"

namespace repro::models {

class Des56TlmAt : public tlm::TargetIf {
 public:
  Des56TlmAt(sim::Kernel& kernel, tlm::TransactionRecorder* recorder,
             sim::Time clock_period_ns)
      : kernel_(kernel), recorder_(recorder), period_(clock_period_ns) {}

  // Write payload data: {indata, key, decrypt}. Read payload returns {out}.
  void b_transport(tlm::Payload& payload, sim::Time& delay) override;

  // Must be called before the first monitored transaction.
  void set_static_observable(const std::string& name, uint64_t value) {
    statics_.emplace_back(name, value);
  }

  static constexpr int kLatencyCycles = 17;

 private:
  enum : size_t { kDs, kIndata, kKey, kDecrypt, kOut, kRdy };

  support::Snapshot snapshot(bool ds, bool rdy, uint64_t out);
  void emit_phase(sim::Time at, tlm::Command command,
                  support::Snapshot observables);

  sim::Kernel& kernel_;
  tlm::TransactionRecorder* recorder_;  // may be null (unmonitored run)
  sim::Time period_;
  std::vector<std::pair<std::string, uint64_t>> statics_;
  std::shared_ptr<const support::Snapshot::Keys> keys_;
  support::Snapshot proto_;

  uint64_t indata_ = 0;
  uint64_t key_ = 0;
  bool decrypt_ = false;
  uint64_t result_ = 0;      // result of the pending operation
  uint64_t last_out_ = 0;    // value of `out` before the pending result lands
  bool pending_ = false;
};

}  // namespace repro::models

#endif  // REPRO_MODELS_DES56_DES56_TLM_AT_H_
