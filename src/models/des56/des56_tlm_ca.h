// TLM cycle-accurate (TLM-CA) model of the DES56 IP.
//
// The I/O protocol of the RTL model is preserved: the initiator issues one
// write transaction per clock cycle carrying the cycle's input values; the
// target advances the shared cycle-accurate core by one edge and returns
// the registered outputs. The end of each per-cycle transaction therefore
// corresponds to a rising clock edge, and unabstracted RTL properties can be
// replayed directly on the transaction stream (the TLM-CA rows of Table I).
//
// data[] layout for the write payload: {ds, indata, key, decrypt};
// on return the payload data is {out, rdy, rdy_next_cycle,
// rdy_next_next_cycle}.
#ifndef REPRO_MODELS_DES56_DES56_TLM_CA_H_
#define REPRO_MODELS_DES56_DES56_TLM_CA_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "models/des56/des56_cycle.h"
#include "tlm/socket.h"

namespace repro::models {

class Des56TlmCa : public tlm::TargetIf {
 public:
  Des56TlmCa() = default;

  void b_transport(tlm::Payload& payload, sim::Time& delay) override;

  // Extra observables merged into every transaction (testbench signals such
  // as monitor_en). Must be called before the first monitored transaction.
  void set_static_observable(const std::string& name, uint64_t value) {
    statics_.emplace_back(name, value);
  }

 private:
  // Fixed indices of the hot observables in the snapshot key table.
  enum : size_t { kDs, kIndata, kKey, kDecrypt, kOut, kRdy, kRdyNc, kRdyNnc };

  const support::Snapshot& prototype();

  Des56Cycle core_;
  std::vector<std::pair<std::string, uint64_t>> statics_;
  std::shared_ptr<const support::Snapshot::Keys> keys_;
  support::Snapshot proto_;
};

}  // namespace repro::models

#endif  // REPRO_MODELS_DES56_DES56_TLM_CA_H_
